package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/bufpool"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/ingest"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/natsim"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/qoe"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// feedBatch is how many datagrams each FeedBatch call carries, the
// batch size of the repository's capture readers.
const feedBatch = 64

// A run sets up at least setupReps times and for at least setupMin,
// and setup_s is the median; short set-ups are repeated more often.
const (
	setupReps = 9
	setupMin  = time.Second
)

// captureStart anchors every generated call in time.
var captureStart = time.Unix(1700000000, 0).UTC()

// batchSpec is a batch workload: the calls one pass analyzes and how
// the program is driven over them.
type batchSpec struct {
	name    string
	configs func(seed uint64) []trace.CaptureConfig
	opts    core.Options
	// shards > 1 drives the sharded ingest tier (ingest.New → FeedBatch
	// → Flush → Close); otherwise one Analyzer (NewAnalyzer →
	// FeedBatch → Close).
	shards int
}

// mediaHeavy is one long media-dense call with no background: DPI
// does nearly all of the work.
var mediaHeavy = batchSpec{
	name: "media-heavy",
	configs: func(seed uint64) []trace.CaptureConfig {
		return []trace.CaptureConfig{{
			App: appsim.Zoom, Network: appsim.WiFiRelay, Seed: seed, Start: captureStart,
			CallDuration: 30 * time.Second, PrePost: time.Second, MediaRate: 120, Burst: true,
		}}
	},
	opts: core.Options{Workers: 2, QoE: &qoe.Config{}},
}

// appMix is every app on every network with background traffic and
// bursty loss, through the sharded tier: many small streams reach
// every registered protocol, filter rule and findings detector.
var appMix = batchSpec{
	name: "app-mix",
	configs: func(seed uint64) []trace.CaptureConfig {
		burst5, ok := natsim.ProfileByName("burst5")
		if !ok {
			panic("natsim: profile burst5 missing")
		}
		return trace.Matrix(trace.MatrixOptions{
			Runs: 1, CallDuration: 10 * time.Second, PrePost: 4 * time.Second,
			Start: captureStart, BaseSeed: seed * 100, Background: true, Impair: burst5,
		})
	},
	opts:   core.Options{Workers: 2, QoE: &qoe.Config{}},
	shards: 2,
}

// bulkBackground hides a short P2P call in bulk TCP downloads: decode,
// flow grouping, SNI probing and the online filter dominate, and DPI
// sees few datagrams.
var bulkBackground = batchSpec{
	name: "bulk-background",
	configs: func(seed uint64) []trace.CaptureConfig {
		return []trace.CaptureConfig{{
			App: appsim.GoogleMeet, Network: appsim.WiFiP2P, Seed: seed, Start: captureStart,
			CallDuration: 10 * time.Second, PrePost: 4 * time.Second,
			Background: true, BackgroundBulk: 60000,
		}}
	},
	opts: core.Options{Workers: 1, QoE: &qoe.Config{}},
}

// capture is one generated call, ready to feed.
type capture struct {
	in     trace.Input
	dgrams []core.Datagram
	mem    *arena // holds the frames' bytes, nil when another owner does
}

func newCapture(in trace.Input, mem *arena) *capture {
	c := &capture{in: in, dgrams: make([]core.Datagram, len(in.Packets)), mem: mem}
	for i, p := range in.Packets {
		c.dgrams[i] = core.Datagram{Timestamp: p.Timestamp, Frame: p.Data}
	}
	return c
}

func (c *capture) analyzerConfig() core.AnalyzerConfig {
	return core.AnalyzerConfig{
		Label:     c.in.Label,
		LinkType:  c.in.LinkType,
		CallStart: c.in.CallStart,
		CallEnd:   c.in.CallEnd,
		Pool:      bufpool.Global(),
	}
}

func totalFrames(caps []*capture) int {
	n := 0
	for _, c := range caps {
		n += len(c.dgrams)
	}
	return n
}

// generate builds the workload's captures for a seed, each with its
// frames off the heap.
func (b *batchSpec) generate(seed uint64) ([]*capture, error) {
	var caps []*capture
	for _, cfg := range b.configs(seed) {
		capt, err := trace.Generate(cfg)
		if err != nil {
			freeCaptures(caps)
			return nil, fmt.Errorf("generate %s: %w", cfg.App, err)
		}
		in := capt.Input()
		mem, err := offHeap(in.Packets)
		if err != nil {
			freeCaptures(caps)
			return nil, err
		}
		caps = append(caps, newCapture(in, mem))
	}
	return caps, nil
}

// freeCaptures releases the captures' frames; none may be fed after.
func freeCaptures(caps []*capture) {
	for _, c := range caps {
		c.mem.free() //nolint:errcheck // unmapping a mapping this process made
	}
}

// newSink builds the program that analyzes one capture: the sharded
// tier when shards > 1, else one Analyzer.
func newSink(c *capture, opts core.Options, shards int) (core.FrameSink, error) {
	if shards > 1 {
		return ingest.New(c.analyzerConfig(), opts, ingest.Config{Shards: shards})
	}
	return core.NewAnalyzer(c.analyzerConfig(), opts)
}

// setup generates the captures and builds the first pass's analyzers,
// repeatedly, and returns the last captures with the median set-up
// time. Each repetition follows a kernel run and is scaled by the
// host's speed just then.
func (b *batchSpec) setup(seed uint64, hs *hostSpeed) ([]*capture, float64, error) {
	var caps []*capture
	var times []float64
	for start := time.Now(); len(times) < setupReps || time.Since(start) < setupMin; {
		freeCaptures(caps)
		caps = nil
		hs.sample(1)
		runtime.GC()
		t0 := time.Now()
		cs, err := b.generate(seed)
		if err != nil {
			return nil, 0, err
		}
		sinks := make([]core.FrameSink, len(cs))
		for i, c := range cs {
			if sinks[i], err = newSink(c, b.opts, b.shards); err != nil {
				return nil, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds()/hs.recent())
		for _, s := range sinks {
			// Closing an analyzer that was never fed stops the shard
			// workers; its empty result is of no interest.
			if _, err := s.Close(); err != nil {
				return nil, 0, err
			}
		}
		caps = cs
	}
	return caps, median(times), nil
}

// captureRun is the outcome of driving the program over one capture.
type captureRun struct {
	ca *core.CaptureAnalysis
	// lag is the verdict lag: from handing over the last datagram to
	// the verdict (Close, or Flush and Close on the sharded tier).
	lag time.Duration
	// stats is the sharded tier's accounting after Flush (nil when
	// serial).
	stats *ingest.Stats
}

// runCapture drives the program over one capture. With a recorder it
// records a span around each call into the program.
func runCapture(c *capture, opts core.Options, shards int, rec *recorder, parent int) (captureRun, error) {
	var r captureRun
	prefix := "core"
	if shards > 1 {
		prefix = "ingest"
	}
	root := rec.begin("run."+prefix, parent)
	defer rec.finish(root)
	sink, err := newSink(c, opts, shards)
	if err != nil {
		return r, err
	}
	for i := 0; i < len(c.dgrams); i += feedBatch {
		sp := rec.begin(prefix+".feed", root)
		err := sink.FeedBatch(c.dgrams[i:min(i+feedBatch, len(c.dgrams))])
		rec.finish(sp)
		if err != nil {
			sink.Close() //nolint:errcheck // the feed error is the one to report
			return r, err
		}
	}
	t0 := time.Now()
	if sa, ok := sink.(*ingest.ShardedAnalyzer); ok {
		sp := rec.begin("ingest.flush", root)
		err := sa.Flush()
		rec.finish(sp)
		if err != nil {
			sink.Close() //nolint:errcheck // the flush error is the one to report
			return r, err
		}
		st := sa.Stats()
		r.stats = &st
	}
	sp := rec.begin(prefix+".close", root)
	r.ca, err = sink.Close()
	rec.finish(sp)
	r.lag = time.Since(t0)
	return r, err
}

// pass drives the program over every capture.
func pass(caps []*capture, opts core.Options, shards int) ([]captureRun, error) {
	runs := make([]captureRun, len(caps))
	for i, c := range caps {
		r, err := runCapture(c, opts, shards, nil, -1)
		if err != nil {
			return nil, err
		}
		runs[i] = r
	}
	return runs, nil
}

// passDigest is the combined digest of a pass's analyses.
func passDigest(runs []captureRun) string {
	parts := make([]string, len(runs))
	for i, r := range runs {
		parts[i] = digest(r.ca, true)
	}
	return combine(parts)
}

// reference analyzes every capture with one serial Analyzer and one
// worker, the configuration every other must agree with. At the
// default seed it must also match the committed digest.
func (b *batchSpec) reference(caps []*capture, seed uint64, committed bool) (string, []*core.CaptureAnalysis, error) {
	opts := b.opts
	opts.Workers = 1
	runs := make([]captureRun, len(caps))
	analyses := make([]*core.CaptureAnalysis, len(caps))
	for i, c := range caps {
		r, err := runCapture(c, opts, 0, nil, -1)
		if err != nil {
			return "", nil, fmt.Errorf("reference pass: %w", err)
		}
		runs[i], analyses[i] = r, r.ca
	}
	ref := passDigest(runs)
	fmt.Printf("reference digest %s\n", ref)
	if committed && seed == defaultSeed {
		want, err := committedDigest(b.name)
		if err != nil {
			return "", nil, err
		}
		if want != ref {
			fmt.Fprintf(os.Stderr, "e2ebench: %s reference digest %s differs from the committed %s\n", b.name, ref, want)
			return want, analyses, nil
		}
	}
	return ref, analyses, nil
}

// runBatch runs a batch workload untraced or traced.
func runBatch(b batchSpec, rc runConfig) (*outcome, error) {
	hs := &hostSpeed{}
	caps, setupS, err := b.setup(rc.seed, hs)
	if err != nil {
		return nil, err
	}
	ref, refs, err := b.reference(caps, rc.seed, true)
	if err != nil {
		return nil, err
	}
	if rc.trace {
		return b.traced(caps, ref, refs, rc, time.Duration(rc.seconds)*time.Second, hs)
	}
	return b.measure(caps, ref, setupS, time.Duration(rc.seconds)*time.Second, hs)
}

// measure runs untraced passes for the given time after one warm-up
// pass and reports the end-to-end metrics. Every pass is checked
// against the reference digest. Each pass's times are scaled to
// reference-host time by the host's speed just before it, as it drifts
// within a run.
func (b *batchSpec) measure(caps []*capture, ref string, setupS float64, budget time.Duration, hs *hostSpeed) (*outcome, error) {
	out := &outcome{Correct: true}
	frames := totalFrames(caps)
	check := func(runs []captureRun, err error) {
		out.Attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s pass %d: %v\n", b.name, out.Attempted, err)
			out.Failed++
		} else if d := passDigest(runs); d != ref {
			fmt.Fprintf(os.Stderr, "e2ebench: %s pass %d digest %s, want %s\n", b.name, out.Attempted, d, ref)
			out.Failed++
		}
	}
	check(pass(caps, b.opts, b.shards)) // warm-up: checked, not timed

	heap := startHeapSampler()
	defer heap.close()
	var rates, peaks, lags []float64
	var allocBytes, allocObjects uint64
	var fed, analyzed uint64
	passes := 0
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		hs.between()
		f := hs.recent()
		// Each pass starts from a collected heap, as the analysis of
		// one capture in a fresh process would; garbage from the
		// previous pass would otherwise be collected at a random point
		// of this one. The heap peak counts what the pass added to it.
		runtime.GC()
		heap.takePeak()
		base := float64(heapInUse()) / (1 << 20)
		c0 := readCounters()
		t0 := time.Now()
		runs, err := pass(caps, b.opts, b.shards)
		d := time.Since(t0)
		c1 := readCounters()
		peaks = append(peaks, heap.takePeak()-base)
		check(runs, err)
		if err != nil {
			continue
		}
		passes++
		rates = append(rates, float64(frames)/d.Seconds()*f)
		allocBytes += c1.allocBytes - c0.allocBytes
		allocObjects += c1.allocObjects - c0.allocObjects
		for _, r := range runs {
			lags = append(lags, ms(r.lag)/f)
			if r.stats != nil {
				fed += r.stats.Fed
				analyzed += r.stats.Analyzed
			}
		}
	}
	if passes == 0 {
		return nil, fmt.Errorf("%s: every pass failed", b.name)
	}
	delivered := 1.0
	if b.shards > 1 {
		delivered = ratio(float64(analyzed), float64(fed))
	}
	hs.report("run")
	out.set("pkts_per_s", median(rates))
	out.set("alloc_bytes_per_pkt", float64(allocBytes)/float64(passes*frames))
	out.set("allocs_per_pkt", float64(allocObjects)/float64(passes*frames))
	out.set("heap_peak_mb", median(peaks))
	out.set("setup_s", setupS)
	out.set("verdict_lag_ms_p50", percentile(lags, 0.5))
	out.set("verdict_lag_ms_p90", percentile(lags, 0.9))
	out.set("delivered_share", delivered)
	out.Correct = out.Failed == 0
	return out, nil
}

// traced reports the per-layer metrics. A traced pass drives, over
// every capture, the serial Analyzer with one worker (so that Close
// does the same work as the serial replay it is set against), the
// sharded tier with the workload's options, and the layer replay. It
// checks that both program runs agree with the reference and that the
// replay reached the same verdicts as Close.
//
// Before the traced passes, untraced passes of the traced path (the
// sharded tier for a sharded workload, else the serial Analyzer) run
// for a quarter of the budget: they are the baseline the tracing
// overhead is measured against, and the window of the runtime and
// buffer-pool ratios. Layer times are scaled to reference-host time by
// the host's slowdown over the whole run.
func (b *batchSpec) traced(caps []*capture, ref string, refs []*core.CaptureAnalysis, rc runConfig, budget time.Duration, hs *hostSpeed) (*outcome, error) {
	out := &outcome{Correct: true}
	frames := totalFrames(caps)
	serial := b.opts
	serial.Workers = 1
	shards := max(b.shards, 2)
	sharded := b.shards > 1
	pathOpts, pathShards := serial, 0
	if sharded {
		pathOpts, pathShards = b.opts, b.shards
	}

	// The DPI counters come from the engine's metrics hook, in a
	// replay of its own so the hook's cost stays out of the timings.
	reg := metrics.NewRegistry()
	var counts replayCounts
	for _, c := range caps {
		_, n, err := replay(c, reg, nil, -1)
		if err != nil {
			return nil, err
		}
		counts.add(n)
	}
	dpiCounts := dpiCounters(reg.Snapshot())

	pool0, c0 := bufpool.Global().Stats(), readCounters()
	var base []float64
	baseEnd := time.Now().Add(budget / 4)
	for n := 0; n < 3 || time.Now().Before(baseEnd); n++ {
		hs.between()
		t0 := time.Now()
		runs, err := pass(caps, pathOpts, pathShards)
		d := time.Since(t0)
		out.Attempted++
		if err != nil {
			out.Failed++
			continue
		}
		if passDigest(runs) != ref {
			out.Failed++
		}
		base = append(base, d.Seconds())
	}
	pool1, c1 := bufpool.Global().Stats(), readCounters()
	if len(base) == 0 {
		return nil, fmt.Errorf("%s: every untraced pass failed", b.name)
	}

	rec := newRecorder()
	var shardMax, shardMean, stalls, batches float64
	deadline := time.Now().Add(budget - budget/4)
	for rec.pass == 0 || time.Now().Before(deadline) {
		hs.between()
		root := rec.begin("pass", -1)
		ok := true
		var pathRuns []captureRun
		for i, c := range caps {
			cr, err := runCapture(c, serial, 0, rec, root)
			if err != nil {
				return nil, err
			}
			sr, err := runCapture(c, b.opts, shards, rec, root)
			if err != nil {
				return nil, err
			}
			if sharded {
				pathRuns = append(pathRuns, sr)
			} else {
				pathRuns = append(pathRuns, cr)
			}
			ra, _, err := replay(c, nil, rec, root)
			if err != nil {
				return nil, err
			}
			want := digest(refs[i], true)
			if digest(cr.ca, true) != want || digest(sr.ca, true) != want ||
				digest(ra, false) != digest(cr.ca, false) {
				fmt.Fprintf(os.Stderr, "e2ebench: %s traced pass %d: %s disagrees with the reference\n", b.name, rec.pass, c.in.Label)
				ok = false
			}
			if rec.pass == 0 {
				most, all := 0.0, 0.0
				for _, sh := range sr.stats.Shards {
					all += float64(sh.Analyzed)
					most = max(most, float64(sh.Analyzed))
				}
				shardMax += most
				shardMean += all / float64(len(sr.stats.Shards))
				stalls += float64(sr.stats.Backpressure)
				batches += float64(sr.stats.Fed) / feedBatch
			}
		}
		rec.finish(root)
		out.Attempted++
		if !ok || passDigest(pathRuns) != ref {
			out.Failed++
		}
		rec.pass++
	}

	f := hs.report("run")
	passes := rec.perPass()
	np := float64(len(passes))
	sum := func(name string) time.Duration {
		var d time.Duration
		for _, lt := range passes {
			d += lt.total[name]
		}
		return d
	}
	nsPer := func(d time.Duration, n int) float64 { return ratio(float64(d), np*float64(n)) / f }
	medianOver := func(f func(layerTimes) float64) float64 {
		v := make([]float64, len(passes))
		for i, lt := range passes {
			v[i] = f(lt)
		}
		return median(v)
	}
	self := map[string]time.Duration{}
	for _, lt := range passes {
		for n, d := range lt.self {
			self[n] += d
		}
	}
	layers, replayTotal := replayLayers(self)
	shareOf := func(names ...string) float64 {
		var d time.Duration
		for _, l := range layers {
			for _, n := range names {
				if l.name == n {
					d += l.self
				}
			}
		}
		return ratio(float64(d), float64(replayTotal))
	}

	out.set("layers.decode_ns_per_frame", nsPer(sum("layers.decode"), counts.frames))
	out.set("flow.add_ns_per_pkt", nsPer(sum("flow.add"), counts.packets))
	out.set("flow.streams", float64(counts.streams))
	out.set("core.feed_ns_per_frame", nsPer(sum("core.feed"), frames))
	out.set("core.close_ms", medianOver(func(lt layerTimes) float64 { return ms(lt.total["core.close"]) })/f)
	out.set("core.close_share", ratio(float64(sum("core.close")), float64(sum("core.close")+sum("core.feed"))))
	out.set("core.close_unattributed_ms", medianOver(func(lt layerTimes) float64 {
		return ms(lt.total["core.close"] - lt.self["filterpipe.run"] - lt.self["dpi.inspect"] -
			lt.self["compliance.check"] - lt.self["qoe.observe"])
	})/f)
	out.set("filterpipe.run_us", medianOver(func(lt layerTimes) float64 {
		return float64(lt.total["filterpipe.run"]) / float64(time.Microsecond)
	})/f)
	out.set("filterpipe.rtc_stream_share", ratio(float64(counts.rtcStreams), float64(counts.streams)))
	out.set("dpi.inspect_ns_per_dgram", nsPer(sum("dpi.inspect"), counts.rtcDgrams))
	out.set("dpi.shift_attempts_per_dgram", ratio(dpiCounts.attempts, dpiCounts.dgrams))
	out.set("dpi.msgs_per_attempt", ratio(dpiCounts.messages, dpiCounts.attempts))
	out.set("dpi.standard_share", ratio(dpiCounts.standard, dpiCounts.dgrams))
	out.set("dpi.self_share", shareOf("dpi"))
	out.set("compliance.check_ns_per_msg", nsPer(sum("compliance.check"), counts.messages))
	out.set("compliance.noncompliant_share", ratio(float64(counts.nonCompliant), float64(counts.verdicts)))
	out.set("qoe.observe_ns_per_dgram", nsPer(sum("qoe.observe"), counts.rtcDgrams))
	out.set("decode_flow.self_share", shareOf("layers", "flow"))
	out.set("ingest.feed_ns_per_frame", nsPer(sum("ingest.feed")+sum("ingest.flush"), frames))
	out.set("ingest.close_ms", medianOver(func(lt layerTimes) float64 { return ms(lt.total["ingest.close"]) })/f)
	out.set("ingest.shard_skew", ratio(shardMax, shardMean))
	out.set("ingest.backpressure_share", ratio(stalls, batches))
	out.set("bufpool.miss_share", ratio(float64(pool1.Misses-pool0.Misses), float64(pool1.Gets-pool0.Gets)))
	out.set("go.gc_cpu_share", ratio(c1.gcCPU-c0.gcCPU, c1.busyCPU-c0.busyCPU))
	out.set("live.frames_dropped_est", 0)
	out.set("pipeline.epochs", 0)
	out.set("bench.sender_late_ms_max", 0)
	out.set("bench.host_slowdown", f)
	pathSpan := "run.core"
	if sharded {
		pathSpan = "run.ingest"
	}
	out.set("bench.trace_overhead_share", medianOver(func(lt layerTimes) float64 {
		return lt.total[pathSpan].Seconds()
	})/median(base)-1)
	out.Correct = out.Failed == 0

	printSelfTimes(os.Stdout, passes)
	header := map[string]any{"workload": rc.workload, "seed": rc.seed, "passes": len(passes)}
	if err := rec.write(spansPath(rc), header); err != nil {
		return nil, err
	}
	return out, nil
}

// dpiTotals are the DPI engine's counters summed over labels.
type dpiTotals struct {
	dgrams, standard, messages, attempts float64
}

func dpiCounters(snap metrics.Snapshot) dpiTotals {
	var t dpiTotals
	for name, v := range snap.Counters {
		base, _, _ := strings.Cut(name, "{")
		switch base {
		case "dpi_datagrams_total":
			t.dgrams += float64(v)
			if name == metrics.Name(base, metrics.L("class", "standard")) {
				t.standard += float64(v)
			}
		case "dpi_messages_total":
			t.messages += float64(v)
		case "dpi_offset_shift_attempts_total":
			t.attempts += float64(v)
		}
	}
	return t
}

// sliceCapture turns a run of frames into a capture whose call window
// is the frames' own span, the window the live daemon defaults to.
func sliceCapture(label string, frames []pcap.Packet) *capture {
	return newCapture(trace.Input{
		Label:     label,
		LinkType:  pcap.LinkTypeRaw,
		Packets:   frames,
		CallStart: frames[0].Timestamp,
		CallEnd:   frames[len(frames)-1].Timestamp,
	}, nil)
}
