package main

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerSetsTimeouts: node and coordinator listeners both come
// from newHTTPServer, which bounds header reads and idle keep-alives.
func TestNewHTTPServerSetsTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != h {
		t.Fatalf("server addr %q handler %v, want the given ones", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 || srv.IdleTimeout != idleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
}
