package pipeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/ingest"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/qoe"
	"github.com/rtc-compliance/rtcc/internal/trace"
	"github.com/rtc-compliance/rtcc/internal/trend"
)

// Runner executes one validated Config: it owns the sink plumbing
// (trace file, explain buffer, verdict stream) and routes captures
// through the serial or sharded engine so front-ends stop wiring those
// pieces by hand. A Runner is good for any number of captures (the
// manifest path analyzes a directory through one Runner); Close
// finishes the sinks.
type Runner struct {
	cfg Config
	reg *metrics.Registry

	traceFile  *os.File
	traceJSONL *obs.JSONLWriter
	explain    *obs.Buffer
	tracer     obs.Tracer

	verdictFile *os.File
	verdictW    *bufio.Writer
}

// explainBufferCap selects obs.DefaultBufferCap, matching the
// historical rtccheck explain buffer.
const explainBufferCap = 0

// NewRunner validates cfg and opens its sinks. The registry may be nil
// (metrics off); serving it over HTTP stays with the caller, because
// one process may share a server across runners (or, in the daemon,
// across epochs).
func NewRunner(cfg Config, reg *metrics.Registry) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg, reg: reg}
	if cfg.Sinks.TraceOut != "" {
		f, err := os.Create(cfg.Sinks.TraceOut)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		r.traceFile = f
		r.traceJSONL = obs.NewJSONLWriter(f)
	}
	if cfg.Sinks.Explain != "" {
		r.explain = obs.NewBuffer(explainBufferCap)
	}
	// Build the Tee from interface values that are nil when the sink is
	// off — a typed-nil *JSONLWriter would survive Tee's nil filter.
	var sinks []obs.Tracer
	if r.traceJSONL != nil {
		sinks = append(sinks, r.traceJSONL)
	}
	if r.explain != nil {
		sinks = append(sinks, r.explain)
	}
	r.tracer = obs.Tee(sinks...)
	if cfg.Sinks.Verdicts != "" {
		f, err := os.Create(cfg.Sinks.Verdicts)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		r.verdictFile = f
		r.verdictW = bufio.NewWriter(f)
	}
	return r, nil
}

// Config returns the validated configuration.
func (r *Runner) Config() Config { return r.cfg }

// Registry returns the metrics registry (possibly nil).
func (r *Runner) Registry() *metrics.Registry { return r.reg }

// Tracer returns the composed trace sink (nil when untraced).
func (r *Runner) Tracer() obs.Tracer { return r.tracer }

// ExplainEvents returns the buffered explain trace.
func (r *Runner) ExplainEvents() []obs.Event {
	if r.explain == nil {
		return nil
	}
	return r.explain.Events()
}

// Options assembles the engine options the Config describes.
func (r *Runner) Options() core.Options {
	opts := core.Options{
		MaxOffset:    r.cfg.Analysis.MaxOffset,
		Workers:      r.cfg.Exec.Workers,
		SkipFindings: !r.cfg.Analysis.FindingsOn(),
		KeepPayloads: r.cfg.Analysis.KeepPayloads,
		EvictIdle:    r.cfg.Exec.EvictIdle.Std(),
		Metrics:      r.reg,
		Tracer:       r.tracer,
	}
	if r.cfg.Analysis.QoE {
		opts.QoE = &qoe.Config{}
	}
	return opts
}

// Sharded reports whether the sharded ingest tier is selected.
func (r *Runner) Sharded() bool { return r.cfg.Exec.Shards > 1 }

// ShardConfig assembles the ingest-tier configuration.
func (r *Runner) ShardConfig() ingest.Config {
	return ingest.Config{Shards: r.cfg.Exec.Shards, Policy: r.policy()}
}

// policy resolves Exec.Policy (validated earlier).
func (e Exec) policy() (ingest.Policy, error) {
	switch e.Policy {
	case "", "block":
		return ingest.Block, nil
	case "drop":
		return ingest.Drop, nil
	}
	return ingest.Block, fmt.Errorf("pipeline: unknown exec.policy %q (block or drop)", e.Policy)
}

func (r *Runner) policy() ingest.Policy {
	p, _ := r.cfg.Exec.policy()
	return p
}

// livePolicy is the back-pressure policy a live session runs under.
// The serial path feeds its analyzer inline and never sheds. The
// sharded tier uses the configured policy, or Drop when none is named,
// because a stalled live producer loses mirror packets upstream
// invisibly while Drop counts every shed datagram.
func (e Exec) livePolicy() ingest.Policy {
	if e.Shards <= 1 {
		return ingest.Block
	}
	if e.Policy == "" {
		return ingest.Drop
	}
	p, _ := e.policy()
	return p
}

// AnalyzeReader routes one pcap/pcapng stream through the engine the
// Config selects: the sharded ingest tier when exec.shards > 1, the
// streaming serial path otherwise. Results are byte-identical either
// way (the shard merge is the invariant the ingest tests pin).
func (r *Runner) AnalyzeReader(rd io.Reader, label string, callStart, callEnd time.Time) (*core.CaptureAnalysis, error) {
	if r.Sharded() {
		return ingest.AnalyzePCAP(rd, label, callStart, callEnd, r.Options(), r.ShardConfig())
	}
	return core.AnalyzePCAP(rd, label, callStart, callEnd, r.Options())
}

// AnalyzeInput routes one in-memory capture through the selected
// engine.
func (r *Runner) AnalyzeInput(in core.CaptureInput) (*core.CaptureAnalysis, error) {
	if r.Sharded() {
		return ingest.AnalyzeCapture(in, r.Options(), r.ShardConfig())
	}
	return core.AnalyzeCapture(in, r.Options())
}

// RunOnce executes the configured one-shot source (pcap or appsim) and
// returns its analysis. Live sources run through LiveSession/Daemon
// instead.
func (r *Runner) RunOnce() (*core.CaptureAnalysis, error) {
	switch r.cfg.Source.Kind {
	case SourcePCAP:
		f, err := os.Open(r.cfg.Source.Path)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		defer f.Close()
		start, end, err := r.cfg.Source.Window()
		if err != nil {
			return nil, err
		}
		return r.AnalyzeReader(f, r.cfg.Source.EffectiveLabel(), start, end)
	case SourceAppsim:
		in, err := r.GenerateInput()
		if err != nil {
			return nil, err
		}
		return r.AnalyzeInput(in)
	}
	return nil, fmt.Errorf("pipeline: source.kind %q is not a one-shot source", r.cfg.Source.Kind)
}

// GenerateInput builds the appsim source's synthetic capture.
func (r *Runner) GenerateInput() (core.CaptureInput, error) {
	app, err := ParseApp(r.cfg.Source.App)
	if err != nil {
		return core.CaptureInput{}, fmt.Errorf("pipeline: source.app: %w", err)
	}
	network, err := ParseNetwork(r.cfg.Source.Network)
	if err != nil {
		return core.CaptureInput{}, fmt.Errorf("pipeline: source.network: %w", err)
	}
	dur := r.cfg.Source.CallDuration.Std()
	if dur <= 0 {
		dur = 30 * time.Second
	}
	cap, err := trace.Generate(trace.CaptureConfig{
		App:          app,
		Network:      network,
		Seed:         r.cfg.Source.Seed,
		Start:        time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC),
		CallDuration: dur,
		MediaRate:    r.cfg.Source.Rate,
	})
	if err != nil {
		return core.CaptureInput{}, err
	}
	in := cap.Input()
	if r.cfg.Source.Label != "" {
		in.Label = r.cfg.Source.Label
	}
	return in, nil
}

// Accounting is the ingest conservation ledger for one session: every
// datagram fed is either analyzed or (under the drop policy) counted
// as shed — Fed == Analyzed + Dropped always holds after a Flush or
// Close, and the daemon carries the sums across config reloads.
type Accounting struct {
	Fed      uint64
	Analyzed uint64
	Dropped  uint64
	Shards   int
}

// Add folds another session's ledger in (daemon epoch accumulation).
func (a *Accounting) Add(b Accounting) {
	a.Fed += b.Fed
	a.Analyzed += b.Analyzed
	a.Dropped += b.Dropped
	if b.Shards > a.Shards {
		a.Shards = b.Shards
	}
}

// Point summarizes one finished analysis as a trend.Point — the record
// both the JSONL verdict stream and the daemon's /compliance/trend
// series use.
func Point(ts time.Time, reason string, ca *core.CaptureAnalysis, acct Accounting) trend.Point {
	p := trend.Point{
		Time:     ts,
		Reason:   reason,
		Fed:      acct.Fed,
		Analyzed: acct.Analyzed,
		Dropped:  acct.Dropped,
	}
	if ca == nil || ca.Stats == nil {
		return p
	}
	p.App = ca.Stats.App
	for _, ps := range ca.Stats.ByProtocol {
		p.Messages += ps.Messages
		p.Compliant += ps.Compliant
	}
	if ratio, ok := ca.Stats.VolumeCompliance(); ok {
		v := ratio
		p.VolumeCompliance = &v
	}
	p.TypesCompliant, p.TypesTotal = ca.Stats.TypeCompliance(dpi.ProtoUnknown)
	for _, n := range ca.Stats.Datagrams {
		p.Datagrams += n
	}
	if ca.QoE != nil {
		p.QoE = ca.QoE.Summary
	}
	return p
}

// WriteVerdict appends one analysis summary to the JSONL verdict
// stream; a Runner without the sink is a no-op.
func (r *Runner) WriteVerdict(ts time.Time, reason string, ca *core.CaptureAnalysis, acct Accounting) error {
	if r.verdictW == nil {
		return nil
	}
	buf, err := json.Marshal(Point(ts, reason, ca, acct))
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if _, err := r.verdictW.Write(append(buf, '\n')); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	return nil
}

// FlushTrace finishes the trace-out export, reporting the path written
// through note (nil to stay quiet). Idempotent.
func (r *Runner) FlushTrace(note io.Writer) error {
	if r.traceJSONL == nil {
		return nil
	}
	if err := r.traceJSONL.Flush(); err != nil {
		r.traceFile.Close()
		r.traceFile, r.traceJSONL = nil, nil
		return err
	}
	if err := r.traceFile.Close(); err != nil {
		r.traceFile, r.traceJSONL = nil, nil
		return err
	}
	if note != nil {
		fmt.Fprintf(note, "trace: wrote %s\n", r.cfg.Sinks.TraceOut)
	}
	r.traceFile, r.traceJSONL = nil, nil
	return nil
}

// Close finishes every sink. Safe to call more than once.
func (r *Runner) Close() error {
	err := r.FlushTrace(nil)
	if r.verdictW != nil {
		if ferr := r.verdictW.Flush(); err == nil {
			err = ferr
		}
		if cerr := r.verdictFile.Close(); err == nil {
			err = cerr
		}
		r.verdictFile, r.verdictW = nil, nil
	}
	return err
}

// LiveSession is one streaming analysis over a live frame source: the
// analyzer (serial or sharded, per the Config), fed through the
// batcher that amortizes per-feed bookkeeping. The daemon runs one
// LiveSession per epoch; one-shot collection runs exactly one.
type LiveSession struct {
	sink      core.FrameSink
	sharded   *ingest.ShardedAnalyzer
	batch     []core.Datagram
	fedSerial uint64
}

// liveBatchCap matches the historical rtclive feed batch size.
const liveBatchCap = 64

// NewLiveSession builds the analyzer for one live session. The live
// path always analyzes raw-IP frames with the call window defaulted to
// the received span (a zero CallStart); the sharded tier runs under
// Exec.livePolicy.
func (r *Runner) NewLiveSession() (*LiveSession, error) {
	acfg := core.AnalyzerConfig{
		Label:        r.cfg.Source.EffectiveLabel(),
		LinkType:     pcap.LinkTypeRaw,
		FramesStable: true, // each decapsulated frame is freshly allocated
	}
	opts := r.Options()
	s := &LiveSession{batch: make([]core.Datagram, 0, liveBatchCap)}
	if r.Sharded() {
		scfg := r.ShardConfig()
		scfg.Policy = r.cfg.Exec.livePolicy()
		sh, err := ingest.New(acfg, opts, scfg)
		if err != nil {
			return nil, err
		}
		s.sharded, s.sink = sh, sh
		return s, nil
	}
	a, err := core.NewAnalyzer(acfg, opts)
	if err != nil {
		return nil, err
	}
	s.sink = a
	return s, nil
}

// Push stages one frame, feeding the analyzer in batches.
func (s *LiveSession) Push(pkt pcap.Packet) error {
	s.fedSerial++
	s.batch = append(s.batch, core.Datagram{Timestamp: pkt.Timestamp, Frame: pkt.Data})
	if len(s.batch) == cap(s.batch) {
		return s.flushBatch()
	}
	return nil
}

func (s *LiveSession) flushBatch() error {
	if len(s.batch) == 0 {
		return nil
	}
	err := s.sink.FeedBatch(s.batch)
	s.batch = s.batch[:0]
	return err
}

// Flush drains the staged batch and, on the sharded tier, waits for
// the shard queues to empty so Accounting is conservation-complete.
func (s *LiveSession) Flush() error {
	if err := s.flushBatch(); err != nil {
		return err
	}
	if s.sharded != nil {
		return s.sharded.Flush()
	}
	return nil
}

// Accounting reports the session ledger. On the serial path every fed
// datagram is analyzed inline, so Fed == Analyzed trivially; call
// after Flush (or Close) for exact sharded numbers.
func (s *LiveSession) Accounting() Accounting {
	if s.sharded == nil {
		return Accounting{Fed: s.fedSerial, Analyzed: s.fedSerial, Shards: 1}
	}
	st := s.sharded.Stats()
	return Accounting{Fed: st.Fed, Analyzed: st.Analyzed, Dropped: st.Dropped, Shards: len(st.Shards)}
}

// Close drains and finalizes the session.
func (s *LiveSession) Close() (*core.CaptureAnalysis, error) {
	if err := s.flushBatch(); err != nil {
		return nil, err
	}
	return s.sink.Close()
}
