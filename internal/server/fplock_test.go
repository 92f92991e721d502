package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"servet/internal/regproto"
	"servet/internal/report"
)

// TestFingerprintLocksReclaimed: many PUTs under distinct fingerprints
// and concurrent on-demand runs leave no fingerprint lock behind — the
// map is bounded by the writes in flight, not by every fingerprint the
// registry has ever seen.
func TestFingerprintLocksReclaimed(t *testing.T) {
	reg := New(NewMemStore())
	ts := httptest.NewServer(reg)
	defer ts.Close()

	const puts = 64
	bodies := []string{
		`{"machine":"dempsey","quick":true,"probes":["cache-size"]}`,
		`{"machine":"dempsey","quick":true,"probes":["tlb"]}`,
		`{"machine":"athlon3200","quick":true,"probes":["tlb"]}`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, puts+len(bodies))
	for i := 0; i < puts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fp := fmt.Sprintf("sha256:test-%d", i)
			data, err := json.Marshal(report.Report{Schema: report.CurrentSchema, Machine: "m", Fingerprint: fp})
			if err != nil {
				errs <- err
				return
			}
			req, err := http.NewRequest(http.MethodPut, ts.URL+regproto.ReportPath(fp), bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				errs <- fmt.Errorf("PUT %s: status %d", fp, resp.StatusCode)
			}
		}(i)
	}
	for _, body := range bodies {
		wg.Add(1)
		go func(body string) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+regproto.RunPath, "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("run %s: status %d", body, resp.StatusCode)
			}
		}(body)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	reg.fpMu.Lock()
	defer reg.fpMu.Unlock()
	if len(reg.fpLocks) != 0 {
		t.Errorf("%d fingerprint locks left after every write finished", len(reg.fpLocks))
	}
}

// TestFingerprintLockSerializes: holders of one fingerprint's lock run
// one at a time — the entry survives while a waiter still needs it, so
// the unsynchronized counter below never races (run with -race).
func TestFingerprintLockSerializes(t *testing.T) {
	reg := New(NewMemStore())
	var wg sync.WaitGroup
	holders := 0
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			unlock := reg.lockFingerprint("sha256:one")
			holders++
			unlock()
		}()
	}
	wg.Wait()
	if holders != 16 || len(reg.fpLocks) != 0 {
		t.Errorf("%d holders, %d fingerprint locks left; want 16, 0", holders, len(reg.fpLocks))
	}
}
