package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestValidateAddrs: the debug listener may share nothing with the
// registry address; empty means no debug listener at all.
func TestValidateAddrs(t *testing.T) {
	cases := []struct {
		addr, debug string
		wantErr     bool
	}{
		{":8077", "", false},
		{":8077", ":8078", false},
		{":8077", "localhost:8078", false},
		{":8077", ":8077", true},
		{"localhost:8077", "localhost:8077", true},
	}
	for _, c := range cases {
		err := validateAddrs(c.addr, c.debug)
		if (err != nil) != c.wantErr {
			t.Errorf("validateAddrs(%q, %q) = %v, wantErr %v", c.addr, c.debug, err, c.wantErr)
		}
	}
}

// TestNewHTTPServerTimeouts: both listeners bound slow and idle
// clients, and neither bounds how long a response may take to write.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer(":8077", h)
	if srv.Addr != ":8077" || srv.Handler != h {
		t.Errorf("server serves %q with %v, want :8077 with the given handler", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("timeouts read-header %v, read %v, idle %v: want all positive",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("write timeout %v would cut off long runs; want none", srv.WriteTimeout)
	}
}

// TestDebugMux: the debug handler serves the pprof index and nothing
// of the registry API.
func TestDebugMux(t *testing.T) {
	ts := httptest.NewServer(debugMux())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/ status = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/reports")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("debug mux serves the registry API; it must not")
	}
}
