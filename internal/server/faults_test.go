package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"servet/internal/regproto"
	"servet/internal/report"
	"servet/internal/server"
)

// storeFault is what faultStore does once armed.
type storeFault int

const (
	putFails storeFault = iota + 1
	putPanics
	// getCancels cancels the registry's base context from inside the
	// run's cache lookup: the run has started and has probes to
	// measure when the cancellation lands.
	getCancels
)

// faultStore is a MemStore that injects one kind of fault while armed.
type faultStore struct {
	*server.MemStore
	fault  storeFault
	armed  atomic.Bool
	cancel context.CancelFunc
	puts   atomic.Int32
}

func (s *faultStore) Get(fp string) (*report.Report, error) {
	if s.armed.Load() && s.fault == getCancels {
		s.cancel()
	}
	return s.MemStore.Get(fp)
}

func (s *faultStore) Put(r *report.Report) error {
	if s.armed.Load() {
		s.puts.Add(1)
		switch s.fault {
		case putFails:
			return errStoreFault
		case putPanics:
			panic("store fault")
		}
	}
	return s.MemStore.Put(r)
}

var errStoreFault = errors.New("injected store fault")

// TestRunStoreFaultsPersistNothing: a POST /v1/run whose Put fails,
// whose Put panics, or whose base context is cancelled mid-run is
// answered 500 internal, and the stored entry for the machine stays
// byte for byte what it was before the request — no partial report
// is persisted.
func TestRunStoreFaultsPersistNothing(t *testing.T) {
	post := func(t *testing.T, url, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(url+regproto.RunPath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, tc := range []struct {
		name      string
		fault     storeFault
		wantPuts  int32
		wantError string
	}{
		{"Put fails", putFails, 1, "injected store fault"},
		{"Put panics", putPanics, 1, ""},
		{"base context cancelled", getCancels, 0, "context canceled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			store := &faultStore{MemStore: server.NewMemStore(), fault: tc.fault, cancel: cancel}
			ts := httptest.NewServer(server.New(store, server.WithBaseContext(ctx)))
			t.Cleanup(ts.Close)

			resp := post(t, ts.URL, `{"machine":"dempsey","quick":true,"probes":["cache-size"]}`)
			var primed report.Report
			err := json.NewDecoder(resp.Body).Decode(&primed)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("priming run: status %d, %v", resp.StatusCode, err)
			}
			entry := func() []byte {
				t.Helper()
				r, err := store.MemStore.Get(primed.Fingerprint)
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			before := entry()

			store.armed.Store(true)
			resp = post(t, ts.URL, `{"machine":"dempsey","quick":true,"probes":["cache-size","tlb"]}`)
			if resp.StatusCode != http.StatusInternalServerError {
				resp.Body.Close()
				t.Fatalf("status %d, want 500", resp.StatusCode)
			}
			e := decodeError(t, resp)
			if e.Code != regproto.CodeInternal || !strings.Contains(e.Message, tc.wantError) {
				t.Errorf("error %+v, want code %q mentioning %q", e, regproto.CodeInternal, tc.wantError)
			}
			if got := store.puts.Load(); got != tc.wantPuts {
				t.Errorf("%d Put calls, want %d", got, tc.wantPuts)
			}
			if after := entry(); string(after) != string(before) {
				t.Errorf("stored entry changed:\n%s\nbefore the request:\n%s", after, before)
			}
			if list, err := store.MemStore.List(); err != nil || len(list) != 1 {
				t.Errorf("store lists %d entries (%v), want 1", len(list), err)
			}
		})
	}
}
