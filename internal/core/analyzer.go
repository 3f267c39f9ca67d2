package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/rtc-compliance/rtcc/internal/bufpool"
	"github.com/rtc-compliance/rtcc/internal/compliance"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/filterpipe"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/report"
)

// AnalyzerConfig describes the frames one streaming analysis is fed.
// Retention and eviction are analysis settings and live on Options
// (KeepPayloads, EvictIdle).
type AnalyzerConfig struct {
	// Label names the application (or capture) in reports.
	Label string
	// LinkType describes the fed frames.
	LinkType pcap.LinkType
	// CallStart and CallEnd delimit the annotated call window. A zero
	// CallStart defaults the window to the span of the fed timestamps
	// at Close — the convention for unannotated captures. Until Close
	// the window is then unknown, so only window-independent filter
	// rules run online.
	CallStart, CallEnd time.Time
	// FramesStable promises that fed frame buffers stay valid and
	// unmodified for the Analyzer's lifetime, letting it reference
	// payload bytes instead of copying them. Readers that reuse their
	// frame buffer must leave it false.
	FramesStable bool
	// Pool, when non-nil, copies kept UDP payloads into per-stream
	// arenas drawn from this pool instead of heap-allocating each copy,
	// and releases a stream's arena when its payloads are dropped (an
	// online filter removal, an eviction, or Close). Together
	// with FeedBatch this makes the steady-state datagram path
	// allocation-free. Ownership rules are in DESIGN.md §14.
	// Incompatible with Options.KeepPayloads (the batch result would
	// retain released buffers); ignored when FramesStable promises
	// stable frames (nothing is copied then).
	Pool *bufpool.Pool
	// ExternalSeq makes FeedBatch take each datagram's arrival index
	// from its Seq field instead of the Analyzer's own feed counter.
	// The sharded ingest router (internal/ingest) stamps a
	// capture-global sequence on every datagram before fanning out, so
	// each shard records where its streams sit in the global arrival
	// order and MergeAnalyzers can rebuild the serial stream-table
	// order exactly.
	ExternalSeq bool
}

// streamState is the Analyzer's per-stream pipeline state beyond what
// flow.Stream summarizes.
type streamState struct {
	s *flow.Stream
	// removed marks a provisional filter verdict. Every online rule is
	// monotone — once true it stays true through Close — so a removed
	// stream's payloads are dropped immediately and never inspected.
	removed bool
	// insp, session, and partial carry the DPI, compliance, and
	// findings state of a provisionally-RTC UDP stream across chunked
	// finalizations (eviction mode). finalizeStream creates them at the
	// stream's first finalization; until then the kept records in s
	// are the stream's only DPI input.
	insp    *dpi.StreamInspector
	session *compliance.Session
	partial *streamPartial
	// span is the stream's decision-trace span (nil when tracing is
	// off), created with insp; it buffers events until the analyzer
	// flushes it at a deterministic point.
	span *obs.Span
	// arena holds the stream's pooled payload copies (pool mode only);
	// released together with the records that reference them.
	arena *bufpool.Arena
	// prev/next link the stream into the analyzer's intrusive recency
	// list (least-recent first); inList marks membership (false while
	// evicted). Embedding the links keeps stream wake-ups
	// allocation-free — container/list would allocate an Element per
	// re-insertion.
	prev, next *streamState
	inList     bool
	// checkSeq is the Analyzer.feedSeq value at the stream's last
	// per-feed maintenance (recency bump, online-filter re-check).
	// FeedBatch bumps feedSeq per batch, so batching amortizes that
	// maintenance to once per stream per batch — an output-neutral
	// change, because every online filter rule is monotone and
	// eviction/removal timing only moves chunk boundaries.
	checkSeq uint64
	// birth is the arrival index of the datagram that created this
	// stream. Under ExternalSeq it is capture-global, which is what
	// lets MergeAnalyzers sort shard streams back into the exact
	// insertion order a serial analyzer's table would hold.
	birth uint64
}

// Analyzer is the incremental analysis pipeline: FeedBatch advances
// packet decoding, flow grouping, payload retention, and online
// filtering per frame; Close reconciles the online filter verdicts
// against the full two-stage filter, finalizes the surviving streams
// (DPI, compliance, QoE, findings), and assembles the CaptureAnalysis.
// With Options.KeepPayloads (and no eviction) the result is
// byte-identical to the batch pipeline; the offline entry points are
// thin wrappers over this type.
type Analyzer struct {
	cfg  AnalyzerConfig
	opts Options

	table  *flow.Table
	states map[flow.Key]*streamState
	// recHead..recTail is the intrusive recency list ordering live
	// (non-evicted) streams by last activity, least-recent first.
	recHead, recTail *streamState
	engine           *dpi.Engine

	// lastKey/lastSt memoize the most recently fed stream: RTC traffic
	// arrives in per-stream bursts, so consecutive datagrams usually hit
	// the same stream and skip both map lookups.
	lastKey flow.Key
	lastSt  *streamState
	// feedSeq numbers FeedBatch calls; see streamState.checkSeq.
	feedSeq uint64

	frames     int
	decodeErrs int
	// firstTS and lastTS are the first and last fed timestamps
	// (positional, matching the batch window-defaulting convention).
	firstTS, lastTS time.Time
	// arrival numbers fed frames 1..n (or mirrors Datagram.Seq under
	// ExternalSeq); firstSeq/lastSeq are the arrival indices behind
	// firstTS/lastTS, which is how MergeAnalyzers picks the globally
	// first and last timestamps across shards.
	arrival           uint64
	firstSeq, lastSeq uint64

	active, peak int
	closed       bool

	// pkt is decode scratch: feeding is single-goroutine, so one
	// reusable Packet removes the per-frame layer allocations.
	pkt layers.Packet

	// trace is the capture's decision-trace context (nil when
	// Options.Tracer is nil). All emission happens from Feed or the
	// deterministic parts of Close, never from worker goroutines.
	trace *obs.Pipeline

	cm captureMetrics
	am analyzerMetrics
}

// NewAnalyzer validates the configuration and returns an empty
// Analyzer.
func NewAnalyzer(cfg AnalyzerConfig, opts Options) (*Analyzer, error) {
	if cfg.CallEnd.Before(cfg.CallStart) {
		return nil, errors.New("core: call window end precedes start")
	}
	if opts.EvictIdle > 0 && opts.KeepPayloads {
		return nil, errors.New("core: KeepPayloads is incompatible with EvictIdle")
	}
	if cfg.Pool != nil && opts.KeepPayloads {
		return nil, errors.New("core: KeepPayloads is incompatible with Pool (the batch result would retain released buffers)")
	}
	return &Analyzer{
		cfg:    cfg,
		opts:   opts,
		table:  flow.NewTable(),
		states: make(map[flow.Key]*streamState),
		engine: opts.engine(),
		trace:  obs.New(opts.Tracer, cfg.Label, obs.Sampling{}, opts.Metrics),
		am:     newAnalyzerMetrics(opts.Metrics, cfg.Label),
	}, nil
}

// Feed advances the pipeline by one captured frame: a one-element
// FeedBatch. Decode failures are tolerated and counted, exactly as in
// the batch path; the returned error is reserved for misuse (feeding a
// closed Analyzer).
func (a *Analyzer) Feed(ts time.Time, frame []byte) error {
	return a.FeedBatch([]Datagram{{Timestamp: ts, Frame: frame}})
}

// Datagram is one captured frame with its timestamp, the unit of
// FeedBatch.
type Datagram struct {
	Timestamp time.Time
	Frame     []byte
	// Seq is the datagram's capture-global arrival index, consumed
	// only by analyzers configured with ExternalSeq (the sharded
	// ingest router stamps it before fanning out). Plain FeedBatch
	// callers leave it zero; it is ignored then.
	Seq uint64
}

// FeedBatch advances the pipeline over a slice of frames, amortizing
// the per-call overhead (the feed-latency probe, the per-stream
// maintenance, the eviction walk) over the batch and giving the
// same-stream fast path its best hit rate. Output is identical to
// feeding the datagrams one at a time — batching changes scheduling,
// never results.
//
// Unless FramesStable is set, every frame is copied out (to the pool's
// arenas in pool mode) before FeedBatch returns, so the caller may
// reuse the frame buffers — but not before the call returns, which is
// what lets readers batch frames in a reused ring.
func (a *Analyzer) FeedBatch(batch []Datagram) error {
	if a.closed {
		return errors.New("core: Feed after Close")
	}
	if len(batch) == 0 {
		return nil
	}
	start := a.am.feedSeconds.Start()
	a.feedSeq++
	for i := range batch {
		seq := batch[i].Seq
		if !a.cfg.ExternalSeq {
			a.arrival++
			seq = a.arrival
		}
		a.feedOne(batch[i].Timestamp, batch[i].Frame, seq)
	}
	if a.opts.EvictIdle > 0 {
		a.evictIdle(batch[len(batch)-1].Timestamp)
	}
	a.am.feedSeconds.ObserveSince(start)
	a.am.feedBatches.Inc()
	return nil
}

// feedOne is FeedBatch's per-frame pipeline step: decode, flow
// grouping, payload retention, and online filtering. DPI runs later,
// over the kept records, when the stream is finalized.
func (a *Analyzer) feedOne(ts time.Time, frame []byte, seq uint64) {
	if a.frames == 0 {
		a.firstTS = ts
		a.firstSeq = seq
	}
	a.frames++
	a.lastTS = ts
	a.lastSeq = seq

	pkt := &a.pkt
	if err := layers.DecodeInto(pkt, a.cfg.LinkType, frame); err != nil {
		a.decodeErrs++
		return
	}
	proto, srcPort, dstPort := pkt.Transport()
	if proto == 0 {
		return
	}
	src := flow.Endpoint{Addr: pkt.Src(), Port: srcPort}
	dst := flow.Endpoint{Addr: pkt.Dst(), Port: dstPort}
	key := flow.KeyFor(proto, src, dst)
	var st *streamState
	if a.lastSt != nil && key == a.lastKey {
		st = a.lastSt
	} else if st = a.states[key]; st == nil {
		// flow.AddPacket cannot fail past the proto check above, so the
		// state can exist before the stream does; pool mode needs it
		// there to hold the payload copy.
		st = &streamState{birth: seq}
		a.states[key] = st
	}

	// Retention: batch compatibility keeps everything; otherwise only
	// provisionally-RTC UDP streams need their records (payload for
	// DPI, timestamp for compliance, direction for findings).
	keep := a.opts.KeepPayloads || (proto == layers.IPProtocolUDP && !st.removed)
	if keep && !a.cfg.FramesStable {
		if a.cfg.Pool != nil {
			if st.arena == nil {
				st.arena = a.cfg.Pool.NewArena()
			}
			pkt.Payload = st.arena.Append(pkt.Payload)
		} else {
			// make+copy (not append to nil) so a zero-length payload
			// stays a non-nil empty slice, exactly as the batch decoder
			// leaves it.
			cp := make([]byte, len(pkt.Payload))
			copy(cp, pkt.Payload)
			pkt.Payload = cp
		}
	}
	if st.s == nil {
		st.s, _ = a.table.AddPacket(ts, pkt, keep)
	} else {
		// Known stream: append directly, skipping the key
		// re-canonicalization and stream-map lookup.
		dir := flow.DirAToB
		if key.A != src {
			dir = flow.DirBToA
		}
		var flags uint8
		if pkt.TCP != nil {
			flags = pkt.TCP.Flags
		}
		a.table.AddToStream(st.s, ts, dir, src, dst, pkt.Payload, flags, keep)
	}
	a.lastKey, a.lastSt = key, st

	// Per-feed maintenance, once per stream per FeedBatch call:
	// recency ordering and the online-filter re-check. Both are
	// output-neutral at any granularity (filter rules are monotone,
	// removal and eviction timing only move chunk boundaries), so a
	// batch pays them once per touched stream instead of per packet.
	if st.checkSeq != a.feedSeq {
		st.checkSeq = a.feedSeq
		if st.inList {
			a.recencyMoveToBack(st)
		} else {
			// A new stream, or an evicted one waking up: it (re)joins
			// the live set and its next finalization continues the
			// persisted contexts.
			a.recencyPushBack(st)
			a.streamLive(+1)
		}
		// The online filter is the final filter's own judge, run on
		// the evidence so far with the window as configured (unknown
		// under a zero CallStart); a removal now holds at Close.
		if !st.removed {
			if rule, _ := filterpipe.Judge(a.table, st.s, a.cfg.CallStart, a.cfg.CallEnd); rule != "" {
				st.removed = true
				a.release(st, false)
			}
		}
	}
}

// recencyPushBack appends st at the most-recent end.
func (a *Analyzer) recencyPushBack(st *streamState) {
	st.prev = a.recTail
	st.next = nil
	if a.recTail != nil {
		a.recTail.next = st
	} else {
		a.recHead = st
	}
	a.recTail = st
	st.inList = true
}

// recencyRemove unlinks st from the recency list.
func (a *Analyzer) recencyRemove(st *streamState) {
	if st.prev != nil {
		st.prev.next = st.next
	} else {
		a.recHead = st.next
	}
	if st.next != nil {
		st.next.prev = st.prev
	} else {
		a.recTail = st.prev
	}
	st.prev, st.next = nil, nil
	st.inList = false
}

// recencyMoveToBack marks st most recent.
func (a *Analyzer) recencyMoveToBack(st *streamState) {
	if a.recTail == st {
		return
	}
	a.recencyRemove(st)
	a.recencyPushBack(st)
}

// streamLive adjusts the live-stream accounting and gauges.
func (a *Analyzer) streamLive(delta int) {
	a.active += delta
	a.am.active.Set(int64(a.active))
	if a.active > a.peak {
		a.peak = a.active
		a.am.activePeak.Set(int64(a.peak))
	}
}

// evictIdle finalizes and evicts streams idle past the configured
// threshold, walking the recency list from its least-recent end.
func (a *Analyzer) evictIdle(now time.Time) {
	for st := a.recHead; st != nil; {
		if now.Sub(st.s.LastSeen) <= a.opts.EvictIdle {
			break
		}
		next := st.next
		a.recencyRemove(st)
		if a.trace != nil {
			a.trace.StreamEvicted(st.s.Key.String())
		}
		a.finalizeStream(st, true)
		// Eviction runs inside the single-goroutine FeedBatch, so this
		// is a deterministic export point for the chunk's events.
		st.span.Flush()
		a.streamLive(-1)
		a.am.evicted.Inc()
		st = next
	}
}

// finalizeStream runs DPI, compliance, QoE, and findings over the
// records a provisionally-RTC UDP stream kept since its last
// finalization, then releases them; the per-stream contexts persist in
// the state, so a later chunk continues seamlessly. Eviction calls it
// with wake set, since the stream may be fed again; Close calls it
// once per final RTC stream from the worker pool, which is safe
// because all touched state is per-stream (the shared engine, tracer,
// and states map are only read, and the buffer pool takes concurrent
// releases). It returns the stream's partial (nil for streams that
// carry no DPI state).
func (a *Analyzer) finalizeStream(st *streamState, wake bool) *streamPartial {
	s := st.s
	p := st.partial
	if s.Key.Proto == layers.IPProtocolUDP && !st.removed {
		if p == nil {
			key := s.Key.String()
			st.span = a.trace.StreamSpan(key)
			st.insp = a.engine.NewStreamInspector()
			st.insp.SetSpan(st.span)
			checker := compliance.NewCheckerWith(a.opts.Registry)
			checker.SetMetrics(a.opts.Metrics)
			st.session = checker.NewSession()
			p = newStreamPartial(st.span, key, a.opts.QoE)
			st.partial = p
		}
		if recs := s.Packets; len(recs) > 0 {
			results := st.insp.Finalize(len(recs), func(i int) []byte { return recs[i].Payload })
			p.consume(recs, results, st.session, a.opts.SkipFindings)
		}
	}
	a.release(st, wake)
	return p
}

// release ends a stream's buffered chunk: its kept records go, and so
// do the pooled payload copies behind them (verdicts and trace windows
// copy the bytes they keep). A stream that can wake up again (eviction)
// keeps its record array and arena for the next chunk, so pooled
// wake-ups stay allocation-free; one that cannot (an online removal, a
// Close-time reclassification, or Close's own finalization) lets go of
// both, along with its DPI state. KeepPayloads analyzers keep every
// record: they are the batch-compatible result.
func (a *Analyzer) release(st *streamState, wake bool) {
	if !a.opts.KeepPayloads {
		if wake {
			clear(st.s.Packets)
			st.s.Packets = st.s.Packets[:0]
		} else {
			st.s.Packets = nil
		}
	}
	if st.arena != nil {
		st.arena.Release()
	}
	if !wake {
		st.arena = nil
		st.insp, st.session, st.partial, st.span = nil, nil, nil, nil
	}
}

// Close reconciles the online verdicts against the full two-stage
// filter and assembles the capture analysis. The filter re-judges every
// stream from its summaries, so provisional admissions that turn out
// wrong are corrected here — their DPI state is discarded and counted —
// and the result matches the batch pipeline.
func (a *Analyzer) Close() (*CaptureAnalysis, error) {
	if a.closed {
		return nil, errors.New("core: Close called twice")
	}
	a.closed = true
	return a.finalize()
}

// finalize is Close without the reuse guard: the full two-stage filter
// over the accumulated table, reconciliation, the parallel per-stream
// finalization, and the deterministic fold. MergeAnalyzers runs it over
// a synthetic analyzer holding the union of N shards' state, which is
// why sharded output is byte-identical to serial by construction — it
// is literally this code path either way.
func (a *Analyzer) finalize() (*CaptureAnalysis, error) {
	callStart, callEnd := a.cfg.CallStart, a.cfg.CallEnd
	if callStart.IsZero() && a.frames > 0 {
		callStart, callEnd = a.firstTS, a.lastTS
	}
	if a.table.Len() == 0 && a.frames > 0 {
		return nil, fmt.Errorf("core: no decodable transport packets (%d frames, %d decode errors)", a.frames, a.decodeErrs)
	}

	cm := newCaptureMetrics(a.opts.Metrics, a.cfg.Label)
	cm.captures.Inc()
	cm.frames.Add(uint64(a.frames))
	cm.decodeErrors.Add(uint64(a.decodeErrs))
	cm.packets.Add(uint64(a.frames - a.decodeErrs))
	cm.workers.Set(int64(a.opts.workers()))

	fres := filterpipe.Run(a.table, filterpipe.Config{
		CallStart: callStart,
		CallEnd:   callEnd,
		Metrics:   a.opts.Metrics,
		Trace:     a.trace,
	})

	ca := &CaptureAnalysis{
		Label:        a.cfg.Label,
		Filter:       fres,
		Stats:        report.NewAppStats(a.cfg.Label),
		RTPSSRCs:     make(map[uint32]bool),
		DecodeErrors: a.decodeErrs,
	}
	for _, s := range a.table.Streams() {
		ca.Bytes += s.Bytes
	}

	// Reconciliation: UDP streams admitted provisionally that the full
	// filter removed. Their kept records and any DPI state are
	// discarded — monotonicity guarantees the reverse (provisionally
	// removed but finally RTC) cannot happen.
	for _, s := range fres.RemovedStreams {
		st := a.states[s.Key]
		if st.removed || s.Key.Proto != layers.IPProtocolUDP {
			continue
		}
		a.am.reclassified.Inc()
		if a.trace != nil {
			rm := fres.Removed[s.Key]
			a.trace.StreamReclassified(s.Key.String(), rm.Stage, string(rm.Rule))
		}
		a.release(st, false)
	}

	// Finalize the surviving UDP RTC streams, fanned out exactly like
	// the batch path, and fold in deterministic RTC order.
	var udp []*flow.Stream
	for _, s := range fres.RTC {
		if s.Key.Proto == layers.IPProtocolUDP {
			udp = append(udp, s)
		}
	}
	cm.rtcStreams.Add(uint64(len(udp)))
	partials := make([]*streamPartial, len(udp))
	forEachIndexed(len(udp), a.opts.workers(), func(i int) error {
		start := cm.streamSeconds.Start()
		partials[i] = a.finalizeStream(a.states[udp[i].Key], false)
		cm.streamSeconds.ObserveSince(start)
		return nil
	})

	foldStart := cm.foldSeconds.Start()
	foldPartials(ca, partials, a.opts.SkipFindings)
	cm.foldSeconds.ObserveSince(foldStart)

	if a.trace != nil {
		for _, f := range ca.Findings {
			a.trace.FindingEmitted(f.Kind, f.Detail)
		}
		a.trace.CaptureEnd(fmt.Sprintf("%d frames, %d decode errors", a.frames, a.decodeErrs))
	}

	a.active = 0
	a.am.active.Set(0)
	return ca, nil
}
