package main

import (
	"testing"

	"servet"
	"servet/internal/tune"
)

// FuzzParseAxis: parseAxis never panics, and every axis it accepts
// that also validates has at least one point, with its last point
// inside the declared bounds.
func FuzzParseAxis(f *testing.F) {
	for _, spec := range []string{
		"tile=pow2:4:32",
		"x=range:0:100:7",
		"alg=choice:a,b",
		"x=range:-9223372036854775808:9223372036854775807:1",
		"x=range:0:9223372036854775807:1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ax, err := parseAxis(spec)
		if err != nil {
			return
		}
		space := servet.TuneSpace{Axes: []servet.TuneAxis{ax}}
		if space.Validate() != nil {
			return
		}
		n := space.Size()
		if n < 1 {
			t.Fatalf("%q: Size() = %d, want >= 1", spec, n)
		}
		// Choice axes have zero bounds and zero Int values.
		last := space.Materialize(tune.Point{n - 1})[0]
		if last.Int < ax.Min || last.Int > ax.Max {
			t.Fatalf("%q: last point %d outside [%d, %d]", spec, last.Int, ax.Min, ax.Max)
		}
	})
}
