package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// traceCapture generates one seeded capture and returns its input.
func traceCapture(t *testing.T, app appsim.App, seed uint64) CaptureInput {
	t.Helper()
	cap, err := trace.Generate(trace.CaptureConfig{
		App: app, Network: appsim.WiFiRelay, Seed: seed,
		Start: t0, CallDuration: 4 * time.Second, PrePost: 5 * time.Second,
		MediaRate: 12, Background: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return CaptureInput{
		Label: string(app), LinkType: pcap.LinkTypeRaw, Packets: cap.Frames(),
		CallStart: cap.CallStart, CallEnd: cap.CallEnd,
	}
}

// traceJSONL analyzes in with the given worker count and returns the
// exported trace bytes.
func traceJSONL(t *testing.T, in CaptureInput, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	if _, err := AnalyzeCapture(in, Options{Workers: workers, Tracer: w}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceSerialParallelIdentical is the trace-layer determinism
// contract: the exported JSONL must be byte-identical between the
// serial and parallel engines for every seed, because spans flush only
// at deterministic pipeline points. Run under -race in CI.
func TestTraceSerialParallelIdentical(t *testing.T) {
	seeds := determinismSeeds
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		in := traceCapture(t, appsim.Zoom, seed)
		serial := traceJSONL(t, in, 1)
		if len(serial) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		for _, workers := range []int{4, 8} {
			parallel := traceJSONL(t, in, workers)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("seed %d: trace differs between workers=1 and workers=%d", seed, workers)
			}
		}
	}
}

// TestTraceEvictionDeterministic covers the chunked-flush path: with
// idle eviction on, spans flush per chunk during Feed, and the export
// must still be identical across worker counts.
func TestTraceEvictionDeterministic(t *testing.T) {
	in := traceCapture(t, appsim.GoogleMeet, 31337)
	run := func(workers int) []byte {
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		a, err := NewAnalyzer(AnalyzerConfig{
			Label: in.Label, LinkType: in.LinkType,
			CallStart: in.CallStart, CallEnd: in.CallEnd,
			FramesStable: true,
		}, Options{Workers: workers, Tracer: w, EvictIdle: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range in.Packets {
			if err := a.Feed(p.Timestamp, p.Data); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	if !strings.Contains(string(serial), `"kind":"stream-evicted"`) {
		t.Fatal("eviction config produced no stream-evicted events")
	}
	if parallel := run(8); !bytes.Equal(serial, parallel) {
		t.Error("eviction-path trace differs between workers=1 and workers=8")
	}
}

// TestTraceLintClean runs the lint invariants over real exports from
// several apps.
func TestTraceLintClean(t *testing.T) {
	for _, app := range []appsim.App{appsim.Zoom, appsim.Discord} {
		in := traceCapture(t, app, 7)
		events, err := obs.ReadJSONL(bytes.NewReader(traceJSONL(t, in, 4)))
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if problems := obs.Lint(events); len(problems) > 0 {
			t.Errorf("%s: lint problems: %v", app, problems)
		}
	}
}

// TestExplainNamesCriterionForEveryNonCompliantType is the tentpole
// acceptance check: for any non-compliant message type the analysis
// reports, -explain must name the exact failing criterion (1-5).
func TestExplainNamesCriterionForEveryNonCompliantType(t *testing.T) {
	apps := appsim.Apps
	if testing.Short() {
		apps = apps[:2]
	}
	nonCompliant := 0
	for _, app := range apps {
		in := traceCapture(t, app, 1)
		buf := obs.NewBuffer(0)
		ca, err := AnalyzeCapture(in, Options{Workers: 4, Tracer: buf})
		if err != nil {
			t.Fatal(err)
		}
		events := buf.Events()
		for key, ts := range ca.Stats.Types {
			if ts.Compliant() {
				continue
			}
			nonCompliant++
			out := obs.Explain(events, obs.Query{App: string(app), MsgType: key.Label})
			if !strings.Contains(out, "failed criterion ") {
				t.Errorf("%s type %s: explain does not name the failing criterion:\n%s", app, key.Label, out)
				continue
			}
			// The named criterion must agree with the recorded reason.
			reason := ""
			for r := range ts.Reasons {
				reason = r
				break
			}
			if reason != "" && !strings.Contains(out, reason) {
				t.Errorf("%s type %s: explain omits reason %q:\n%s", app, key.Label, reason, out)
			}
		}
	}
	if nonCompliant == 0 {
		t.Fatal("seeded matrix produced no non-compliant types; acceptance check is vacuous")
	}
}

// TestTraceDoesNotChangeAnalysis pins the zero-interference contract:
// enabling tracing must not alter any analysis output.
func TestTraceDoesNotChangeAnalysis(t *testing.T) {
	in := traceCapture(t, appsim.Zoom, 42)
	plain, err := AnalyzeCapture(in, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := AnalyzeCapture(in, Options{Workers: 4, Tracer: obs.NewBuffer(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Stats, traced.Stats) {
		t.Error("tracing changed analysis stats")
	}
	if !reflect.DeepEqual(plain.Findings, traced.Findings) {
		t.Error("tracing changed findings")
	}
}

// TestTraceMultiCaptureExportLints pins the multi-capture export
// contract: analyzing several captures into one sink produces a
// lint-clean trace as long as the labels are unique per capture, and
// Lint catches the span collisions that duplicate labels cause (span
// IDs are hashed from the label, so reuse restarts sequence numbers
// mid-file). rtccheck's manifest mode relies on both halves: it
// suffixes the app label with the capture file for exactly this
// reason.
func TestTraceMultiCaptureExportLints(t *testing.T) {
	analyze := func(label string, seed uint64, w *obs.JSONLWriter) {
		t.Helper()
		in := traceCapture(t, appsim.Zoom, seed)
		in.Label = label
		if _, err := AnalyzeCapture(in, Options{Workers: 4, Tracer: w}); err != nil {
			t.Fatal(err)
		}
	}
	export := func(labels [2]string) []obs.Event {
		t.Helper()
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		analyze(labels[0], 7, w)
		analyze(labels[1], 42, w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return events
	}

	unique := export([2]string{"Zoom (a.pcap)", "Zoom (b.pcap)"})
	if problems := obs.Lint(unique); len(problems) != 0 {
		t.Errorf("unique labels: lint found %d problems, first: %s", len(problems), problems[0])
	}
	colliding := export([2]string{"Zoom", "Zoom"})
	if problems := obs.Lint(colliding); len(problems) == 0 {
		t.Error("duplicate labels: lint missed the span collision")
	}
}
