package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/live"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/pipeline"
	"github.com/rtc-compliance/rtcc/internal/qoe"
	"github.com/rtc-compliance/rtcc/internal/trace"
	"github.com/rtc-compliance/rtcc/internal/trend"
)

const (
	// daemonRate is the open-loop generator's send rate in datagrams
	// per reference second.
	daemonRate = 10000
	// daemonEpoch is the daemon's analysis rotation period. One second
	// gives a run of 15 s about a dozen epochs, enough that the 90th
	// percentile of their lags is not just the slowest one.
	daemonEpoch = time.Second
	// daemonLabel names the replayed application in the daemon's
	// verdicts.
	daemonLabel = "Zoom"
	// daemonGrace is how long the daemon keeps reading after the last
	// datagram was sent, so a backlog queued in the socket during an
	// epoch close is read before shutdown.
	daemonGrace = time.Second
)

// epochDatagrams is how many datagrams are due in one epoch.
const epochDatagrams = int(daemonEpoch / time.Second * daemonRate)

// daemonConfig is the daemon's configuration: a loopback collector,
// epochs of daemonEpoch (stretched by the pace) with QoE on, an
// in-memory trend and two alert rules, so every epoch runs the trend
// and alert path. Epochs are finalized by one worker: with one per CPU
// on a 2-CPU host the finalize workers compete with the collector, and
// runs settled either with no loss or with a backlog carried into every
// epoch, so the figures split in two (NOTES.md).
func daemonConfig(p pace) map[string]any {
	return map[string]any{
		"source":   map[string]any{"kind": "live", "listen": "127.0.0.1:0", "label": daemonLabel},
		"analysis": map[string]any{"qoe": true},
		"exec":     map[string]any{"workers": 1},
		"daemon":   map[string]any{"epoch": p.real(daemonEpoch).String()},
		"sinks":    map[string]any{"metrics_addr": "127.0.0.1:0"},
		"alerts": map[string]any{"rules": map[string]any{
			"compliance-drop": map[string]any{"type": "compliance_drop", "drop": 0.5},
			"frame-rate":      map[string]any{"type": "qoe_floor", "field": "frame_rate", "min": 1},
		}},
	}
}

// pace runs the daemon experiment in reference-host time. On a host
// that runs the calibration kernel p times slower than the reference
// host, every interval of the experiment — between two datagrams, an
// epoch, the grace period — lasts p times longer. The daemon then
// faces the same load relative to its speed, so it loses the same
// share and closes the same epochs. The times it takes are scaled by
// the kernel runs made while it was fed, as the host's speed drifts
// within a run. A daemon that gets faster still receives the same
// datagrams, with more slack.
type pace float64

// minPace and maxPace bound the stretch, so that a run ends in time
// on a host far off the reference.
const minPace, maxPace = 0.5, 2.5

func (p pace) real(d time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(p))
}

// daemonFrames generates a media-heavy call long enough that the
// generator never has to wrap around it, with its frames off the heap.
func daemonFrames(seed uint64, need int) ([]pcap.Packet, *arena, error) {
	capt, err := trace.Generate(trace.CaptureConfig{
		App: appsim.Zoom, Network: appsim.WiFiRelay, Seed: seed, Start: captureStart,
		CallDuration: time.Duration(need/500+5) * time.Second, PrePost: time.Second,
		MediaRate: 120, Burst: true,
	})
	if err != nil {
		return nil, nil, err
	}
	frames := capt.Frames()
	if len(frames) < need {
		return nil, nil, fmt.Errorf("daemon capture has %d frames, the run needs %d", len(frames), need)
	}
	frames = frames[:need:need]
	mem, err := offHeap(frames)
	return frames, mem, err
}

// epochLine is one "epoch closed" line of the daemon's log, stamped
// when it reached the benchmark's writer, with the runtime's counters
// and the heap's peak since the previous line, read at that moment.
type epochLine struct {
	at                     time.Time
	reason, app            string
	fed, analyzed, dropped uint64
	typesOK, typesTotal    int
	counters               runtimeCounters
	heapPeakMB             float64
}

// epochLog is the writer the daemon logs to.
type epochLog struct {
	mu     sync.Mutex
	buf    []byte
	lines  []string
	epochs []epochLine
	heap   *heapSampler // nil until the measurement starts
}

// watchHeap makes every later epoch line carry the heap's peak.
func (l *epochLog) watchHeap(h *heapSampler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.heap = h
}

func (l *epochLog) Write(p []byte) (int, error) {
	now := time.Now()
	counters := readCounters()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			break
		}
		line := string(l.buf[:i])
		l.buf = l.buf[i+1:]
		l.lines = append(l.lines, line)
		if e, ok := parseEpochLine(line); ok {
			e.at, e.counters = now, counters
			if l.heap != nil {
				e.heapPeakMB = l.heap.takePeak()
			}
			l.epochs = append(l.epochs, e)
		}
	}
	return len(p), nil
}

func (l *epochLog) snapshot() ([]epochLine, []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]epochLine(nil), l.epochs...), append([]string(nil), l.lines...)
}

// parseEpochLine reads "daemon: epoch closed (REASON): app=A fed=N
// analyzed=N dropped=N types=C/T".
func parseEpochLine(line string) (epochLine, bool) {
	var e epochLine
	rest, ok := strings.CutPrefix(line, "daemon: epoch closed (")
	if !ok {
		return e, false
	}
	e.reason, rest, ok = strings.Cut(rest, "): ")
	if !ok {
		return e, false
	}
	_, err := fmt.Sscanf(rest, "app=%s fed=%d analyzed=%d dropped=%d types=%d/%d",
		&e.app, &e.fed, &e.analyzed, &e.dropped, &e.typesOK, &e.typesTotal)
	return e, err == nil
}

// daemonRun is one in-process daemon.
type daemonRun struct {
	d    *pipeline.Daemon
	log  *epochLog
	done chan error
	addr string
	// started is when the collector was bound, which is when the
	// daemon's first epoch began collecting.
	started time.Time
}

// startDaemon starts a daemon and waits until its collector is bound.
func startDaemon(cfgPath string) (*daemonRun, error) {
	r := &daemonRun{log: &epochLog{}, done: make(chan error, 1)}
	d, err := pipeline.NewDaemon(cfgPath, r.log)
	if err != nil {
		return nil, err
	}
	r.d = d
	go func() { r.done <- d.Run() }()
	bound := make(chan string, 1)
	go func() { bound <- d.Addr() }() // returns once Run has bound the socket
	select {
	case r.addr = <-bound:
		r.started = time.Now()
		return r, nil
	case err := <-r.done:
		return nil, fmt.Errorf("daemon exited during start: %v", err)
	}
}

// stop drains the daemon and waits until Run has returned.
func (r *daemonRun) stop() error {
	r.d.Stop()
	return <-r.done
}

// sendResult is what the open-loop generator did.
type sendResult struct {
	start, end time.Time
	interval   time.Duration // between two datagrams' due times
	sent       int
	lateMax    time.Duration
	cpu        time.Duration // the generator thread's CPU time
}

// due is when datagram i (0-based) was scheduled to be sent.
func (s sendResult) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// sendOpenLoop sends n frames, one every interval, on a fixed
// schedule: each datagram is due at start + i·interval whatever
// happened to the ones before it, and the generator records how late
// it ran. After each epoch's worth of datagrams it runs the
// calibration kernel once, so the host's speed is known for the
// window itself; the datagrams due meanwhile go out late, in a burst.
// The generator keeps its OS thread, so its CPU time, the kernel's
// included, can be told apart from the daemon's.
func sendOpenLoop(addr string, frames []pcap.Packet, n int, interval time.Duration, hs *hostSpeed) (sendResult, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	exp, err := live.Dial(addr)
	if err != nil {
		return sendResult{}, err
	}
	defer exp.Close()
	cpu0 := threadCPU()
	res := sendResult{start: time.Now(), interval: interval}
	for res.sent < n {
		now := time.Now()
		for res.sent < n && !res.due(res.sent).After(now) {
			if err := exp.Send(frames[res.sent]); err != nil {
				return res, fmt.Errorf("send datagram %d: %w", res.sent, err)
			}
			res.lateMax = max(res.lateMax, time.Since(res.due(res.sent)))
			res.sent++
			if res.sent%epochDatagrams == 0 {
				hs.sampleThread()
			}
		}
		if res.sent < n {
			time.Sleep(time.Until(res.due(res.sent)))
		}
	}
	res.end = time.Now()
	res.cpu = threadCPU() - cpu0
	return res, nil
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	return rusageCPU(rusageThread)
}

// processCPU is the whole process's CPU time.
func processCPU() time.Duration {
	return rusageCPU(syscall.RUSAGE_SELF)
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does
// not name.
const rusageThread = 1

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scrape fetches one JSON endpoint of the daemon's metrics server.
func scrape(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// daemonResult is one measured daemon run.
type daemonResult struct {
	out        *outcome
	dropEst    float64 // live_frames_dropped at the end
	epochs     float64 // /healthz epochs at the end
	senderLate time.Duration
}

// runDaemon runs the daemon-replay workload: time the host, set up
// (generate the call, start the daemon) repeatedly, then replay
// the call open loop for the run's seconds of reference time and
// measure what the daemon did with it.
func runDaemon(rc runConfig) (*outcome, error) {
	hs := &hostSpeed{}
	hs.sample(25)
	p := pace(min(max(hs.factor(), minPace), maxPace))
	cfgPath := filepath.Join(outDir, fmt.Sprintf("daemon-%d.json", os.Getpid()))
	raw, err := json.Marshal(daemonConfig(p))
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(cfgPath)

	need := rc.seconds * daemonRate
	var frames []pcap.Packet
	var mem *arena
	var dr *daemonRun
	var times []float64
	for start := time.Now(); len(times) < setupReps || time.Since(start) < setupMin; {
		if dr != nil {
			if err := dr.stop(); err != nil {
				return nil, err
			}
		}
		mem.free() //nolint:errcheck // the stopped daemon holds no frame of it
		frames = nil
		hs.sample(1)
		runtime.GC()
		t0 := time.Now()
		if frames, mem, err = daemonFrames(rc.seed, need); err != nil {
			return nil, err
		}
		if dr, err = startDaemon(cfgPath); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds()/hs.recent())
	}
	res, err := measureDaemon(dr, cfgPath, frames, need, p)
	if err != nil {
		return nil, err
	}
	res.out.set("setup_s", median(times))
	if !rc.trace {
		return res.out, nil
	}

	// The layer attribution replays one epoch's worth of the call
	// through the batch machinery, with the daemon's analysis options.
	spec := batchSpec{name: rc.workload, opts: core.Options{Workers: 1, QoE: &qoe.Config{}}}
	caps := []*capture{sliceCapture(daemonLabel, frames[:epochDatagrams])}
	ref, refs, err := spec.reference(caps, rc.seed, false)
	if err != nil {
		return nil, err
	}
	out, err := spec.traced(caps, ref, refs, rc, time.Duration(rc.seconds)*time.Second/2, hs)
	if err != nil {
		return nil, err
	}
	out.set("live.frames_dropped_est", res.dropEst)
	out.set("pipeline.epochs", res.epochs)
	out.set("bench.sender_late_ms_max", ms(res.senderLate))
	out.Attempted += res.out.Attempted
	out.Failed += res.out.Failed
	out.Correct = out.Correct && res.out.Correct
	return out, nil
}

// measureDaemon replays need frames into a running daemon at the pace,
// then scrapes its endpoints, stops it and checks its verdicts. An
// operation is one epoch verdict; lost datagrams show in
// delivered_share.
func measureDaemon(dr *daemonRun, cfgPath string, frames []pcap.Packet, need int, p pace) (*daemonResult, error) {
	out := &outcome{Correct: true}
	runtime.GC() // start from a heap without the set-up's garbage
	heap := startHeapSampler()
	defer heap.close()
	heap.takePeak()
	base := float64(heapInUse()) / (1 << 20)
	dr.log.watchHeap(heap)
	cpu0 := processCPU()
	win := &hostSpeed{}
	sr, sendErr := sendOpenLoop(dr.addr, frames, need, p.real(time.Second/daemonRate), win)
	time.Sleep(p.real(daemonGrace))
	cpu1 := processCPU()

	// The endpoints are read once, after the timed window.
	var snap metrics.Snapshot
	var health struct {
		Epochs uint64 `json:"epochs"`
	}
	var trendPoints struct {
		Points []trend.Point `json:"points"`
	}
	url := "http://" + dr.d.MetricsAddr()
	scrapeErr := errors.Join(scrape(url+"/metrics", &snap), scrape(url+"/healthz", &health),
		scrape(url+"/compliance/trend", &trendPoints))
	runErr := dr.stop()
	if err := errors.Join(sendErr, scrapeErr, runErr); err != nil {
		return nil, err
	}
	total := dr.d.Total()
	epochs, lines := dr.log.snapshot()

	// Every epoch verdict must account for its datagrams, and together
	// they must account for everything the daemon was fed.
	var fedSum uint64
	for _, e := range epochs {
		out.Attempted++
		fedSum += e.fed
		if e.app != daemonLabel || e.fed == 0 || e.fed != e.analyzed+e.dropped || e.typesTotal == 0 {
			fmt.Fprintf(os.Stderr, "e2ebench: bad epoch verdict %+v\n", e)
			out.Failed++
		}
	}
	if out.Attempted == 0 || fedSum != total.Fed || total.Fed != total.Analyzed+total.Dropped ||
		total.Fed > uint64(sr.sent) {
		fmt.Fprintf(os.Stderr, "e2ebench: daemon accounting: sent %d, ledger %+v, epoch lines sum %d\n%s\n",
			sr.sent, total, fedSum, strings.Join(lines, "\n"))
		out.Correct = false
	}
	failed, err := checkEpochs(cfgPath, frames, sr, epochs, trendPoints.Points, total.Fed == uint64(sr.sent))
	if err != nil {
		return nil, err
	}
	out.Failed += failed

	// Verdict lag: from when the last datagram counted in an epoch was
	// due to its "epoch closed" line. An epoch collects for an epoch
	// period from the moment the previous one closed (the first from
	// the daemon's start), and a daemon that keeps reading has read
	// every datagram due before its window ends, so the last one
	// counted was due when the window ended. Only epochs the timer
	// closed while the generator was still sending count: the last one
	// with data closed after sending stopped, and the shutdown epoch
	// was closed by the benchmark.
	//
	// The heap peak and the allocations are taken over the same epochs,
	// each from the previous epoch's line to its own, so that every
	// window holds one collection and one close. An epoch's peak
	// depends on whether a collection ran just before its close, which
	// varies from epoch to epoch, so the metric is the mean of the
	// epochs' peaks.
	var lags, peaks []float64
	first, counted, last := -1, -1, -1
	for i, e := range epochs {
		if e.fed > 0 {
			last = i
		}
	}
	opened := dr.started
	for i, e := range epochs {
		windowEnd := opened.Add(p.real(daemonEpoch))
		opened = e.at
		// The first epoch is a warm-up: it starts with the daemon,
		// before the first datagram, and no backlog carries into it.
		if i == 0 || e.reason != "epoch" || i == last || e.fed == 0 {
			continue
		}
		if first < 0 {
			first = i
		}
		counted = i
		lags = append(lags, ms(e.at.Sub(windowEnd)))
		peaks = append(peaks, e.heapPeakMB-base)
	}
	if len(lags) == 0 {
		return nil, fmt.Errorf("no epoch closed while the generator was sending (%d epoch lines)", len(epochs))
	}
	var windowFed uint64
	for _, e := range epochs[first : counted+1] {
		windowFed += e.fed
	}
	c0, c1 := epochs[first-1].counters, epochs[counted].counters

	// The daemon's CPU time is the process's less the generator's.
	f := win.report("sending window")
	fed := float64(total.Fed)
	busy := (cpu1 - cpu0 - sr.cpu).Seconds()
	out.set("pkts_per_s", float64(total.Analyzed)/busy*f)
	out.set("alloc_bytes_per_pkt", float64(c1.allocBytes-c0.allocBytes)/float64(windowFed))
	out.set("allocs_per_pkt", float64(c1.allocObjects-c0.allocObjects)/float64(windowFed))
	out.set("heap_peak_mb", mean(peaks))
	out.set("verdict_lag_ms_p50", percentile(lags, 0.5)/f)
	out.set("verdict_lag_ms_p90", percentile(lags, 0.9)/f)
	out.set("delivered_share", fed/float64(sr.sent))
	out.Correct = out.Correct && out.Failed == 0
	fmt.Printf("daemon sent %d, fed %d, %d epoch verdicts, lags_ms %.1f, daemon CPU %.2f s, sender late max %.2f ms\n",
		sr.sent, total.Fed, len(epochs), lags, busy, ms(sr.lateMax))
	return &daemonResult{
		out:        out,
		dropEst:    float64(snap.Gauges["live_frames_dropped"]),
		epochs:     float64(health.Epochs),
		senderLate: sr.lateMax,
	}, nil
}

// checkEpochs holds each epoch's verdicts against a serial analysis of
// the datagrams it could have seen, and returns how many disagree. The
// reference runs the daemon's own session code (a pipeline Runner from
// the same configuration, its reorder buffer and live session) over
// the frames after the wire round trip, with nothing lost and no
// socket in between.
//
// The datagrams of epoch i follow the Fed of the epochs before it,
// because loopback UDP keeps their order. When the daemon lost none in
// the run, or for the first epoch, which no close interrupted, they
// are exactly the next Fed datagrams, and the verdicts must be equal.
// Otherwise they are a subset of the datagrams from there up to the
// last one due before the epoch's line, and the epoch may not report
// more message types, messages or classified datagrams than that span
// holds.
func checkEpochs(cfgPath string, frames []pcap.Packet, sr sendResult, epochs []epochLine, points []trend.Point, lossless bool) (int, error) {
	var cfg pipeline.Config
	if err := pipeline.LoadFile(&cfg, cfgPath); err != nil {
		return 0, err
	}
	failed := 0
	lo := 0
	for i, e := range epochs {
		if i >= len(points) {
			// The shutdown epoch closed after the trend was read.
			break
		}
		got := points[i]
		exact := lossless || i == 0
		hi := lo + int(e.fed)
		if !exact {
			hi = min(sr.sent, max(hi, int(e.at.Sub(sr.start)/sr.interval)+1))
		}
		want, err := referencePoint(cfg, frames[lo:hi])
		if err != nil {
			return 0, err
		}
		ok := got.TypesTotal <= want.TypesTotal && got.Messages <= want.Messages && got.Datagrams <= want.Datagrams
		if exact {
			ok = sameVerdicts(got, want)
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: epoch %d (frames %d..%d, exact %v) verdicts %+v, reference %+v\n",
				i, lo, hi, exact, got, want)
			failed++
		}
		lo += int(e.fed)
	}
	return failed, nil
}

// referencePoint analyzes frames the way the daemon analyzes an epoch.
func referencePoint(cfg pipeline.Config, frames []pcap.Packet) (trend.Point, error) {
	r, err := pipeline.NewRunner(cfg, metrics.NewRegistry())
	if err != nil {
		return trend.Point{}, err
	}
	defer r.Close()
	sess, err := r.NewLiveSession()
	if err != nil {
		return trend.Point{}, err
	}
	rb := live.NewReorderBuffer(cfg.Source.Reorder, sess.Push)
	for i, f := range frames {
		_, pkt, err := live.Decapsulate(live.Encapsulate(uint32(i), f))
		if err != nil {
			return trend.Point{}, err
		}
		if err := rb.Push(pkt); err != nil {
			return trend.Point{}, err
		}
	}
	if err := rb.Flush(); err != nil {
		return trend.Point{}, err
	}
	if err := sess.Flush(); err != nil {
		return trend.Point{}, err
	}
	acct := sess.Accounting()
	ca, err := sess.Close()
	if err != nil {
		return trend.Point{}, err
	}
	return pipeline.Point(time.Time{}, "", ca, acct), nil
}

// sameVerdicts compares two epochs' verdicts, leaving out when and why
// each closed.
func sameVerdicts(a, b trend.Point) bool {
	a.Time, a.Reason, b.Time, b.Reason = time.Time{}, "", time.Time{}, ""
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}
