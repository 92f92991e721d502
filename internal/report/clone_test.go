package report

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var timeType = reflect.TypeOf(time.Time{})

// fillDistinct sets every field reachable from v to a distinct
// non-zero value: slices and maps get two elements, pointers a fresh
// target. A kind it cannot fill fails the test, so a new field of
// such a kind forces this filler (and Clone) to be extended.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillDistinct(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), n)
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			fillDistinct(t, k, n)
			e := reflect.New(v.Type().Elem()).Elem()
			fillDistinct(t, e, n)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillDistinct(t, p.Elem(), n)
		v.Set(p)
	case reflect.Struct:
		if v.Type() == timeType {
			v.Set(reflect.ValueOf(time.Date(2026, 7, 1, 12, 0, *n, *n, time.UTC)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).CanSet() {
				t.Fatalf("%s.%s is unexported; extend fillDistinct", v.Type(), v.Type().Field(i).Name)
			}
			fillDistinct(t, v.Field(i), n)
		}
	default:
		t.Fatalf("fillDistinct: unsupported kind %s (%s); extend it and Clone", v.Kind(), v.Type())
	}
}

// checkUnshared walks a and b side by side and reports every slice
// backing array, map or pointer they share. time.Time is a leaf: its
// location pointer is immutable and shared by design.
func checkUnshared(t *testing.T, path string, a, b reflect.Value) {
	t.Helper()
	switch a.Kind() {
	case reflect.Slice:
		if a.Len() > 0 && a.Pointer() == b.Pointer() {
			t.Errorf("%s: clone shares the slice's backing array", path)
		}
		for i := 0; i < a.Len(); i++ {
			checkUnshared(t, fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			checkUnshared(t, fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if !a.IsNil() && a.Pointer() == b.Pointer() {
			t.Errorf("%s: clone shares the map", path)
		}
		for _, k := range a.MapKeys() {
			checkUnshared(t, fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), b.MapIndex(k))
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return
		}
		if a.Pointer() == b.Pointer() {
			t.Errorf("%s: clone shares the pointer", path)
		}
		checkUnshared(t, path, a.Elem(), b.Elem())
	case reflect.Struct:
		if a.Type() == timeType {
			return
		}
		for i := 0; i < a.NumField(); i++ {
			checkUnshared(t, path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
		}
	}
}

// TestCloneCopiesEveryField fills every field of a Report and requires
// the clone to equal it while sharing no memory with it, so a field
// added to the schema but not to Clone fails here.
func TestCloneCopiesEveryField(t *testing.T) {
	var r Report
	n := 0
	fillDistinct(t, reflect.ValueOf(&r).Elem(), &n)
	cp := r.Clone()
	if !reflect.DeepEqual(&r, cp) {
		t.Fatalf("clone differs from the original:\n%+v\nvs\n%+v", r, *cp)
	}
	checkUnshared(t, "Report", reflect.ValueOf(&r).Elem(), reflect.ValueOf(cp).Elem())
}

func TestCloneNil(t *testing.T) {
	var r *Report
	cp := r.Clone()
	if cp == nil || !reflect.DeepEqual(cp, &Report{}) {
		t.Errorf("nil Clone = %+v, want a new empty report", cp)
	}
}

func TestCloneKeepsNilAndEmpty(t *testing.T) {
	r := &Report{Caches: []CacheResult{}, Memory: MemoryResult{Levels: []OverheadLevel{{Pairs: [][2]int{}, Groups: [][]int{}}}}}
	cp := r.Clone()
	if cp.Caches == nil || cp.Memory.Levels[0].Pairs == nil || cp.Memory.Levels[0].Groups == nil {
		t.Error("empty slice cloned to nil")
	}
	if cp.Timings != nil || cp.Comm.Layers != nil || cp.Memory.Levels[0].Scalability != nil {
		t.Error("nil slice cloned to non-nil")
	}
}

// TestCloneEncodesLikeOriginal checks that every committed run golden
// clones to a report that saves to the same bytes.
func TestCloneEncodesLikeOriginal(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "run_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no run_*.json goldens")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			r, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := r.encode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Clone().encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("clone encodes differently:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

func BenchmarkReportClone(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "run_nehalem2s.json"))
	if err != nil {
		b.Fatal(err)
	}
	r, err := parse(data, "run_nehalem2s.json")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		r.Clone()
	}
}
