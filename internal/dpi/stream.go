package dpi

import (
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/proto"
)

// StreamInspector runs Algorithm 1 over the datagrams of one transport
// stream incrementally, one chunk per Finalize. The inspector holds no
// payloads: each Finalize reads the chunk's datagrams from the caller
// (the streaming analyzer's per-packet records), runs pass 1 (the
// registered probers' stream-level scans) as one batched sweep over the
// chunk, then pass 2 over the same chunk, so a caller that finalizes
// periodically never holds payload bytes past the DPI stage.
//
// Running pass 1 at the chunk boundary instead of per datagram changes
// no output: pass 2 of a chunk consults the validated-SSRC evidence as
// of the chunk's end, and whether that evidence was tallied datagram by
// datagram as each arrived or in one sweep over the chunk, the
// sightings happen in the same stream order over the same bytes. What
// it changes is cost shape: the ingestion path does per-packet
// bookkeeping only, and the two scan passes run back to back over
// payloads that are still warm in cache.
//
// RTP is the one target protocol whose header pattern is weak (any
// version-2 first byte passes), so candidate extraction alone produces
// false positives inside proprietary headers and encrypted payloads.
// The paper's protocol-specific validation resolves this with
// cross-packet heuristics: "valid SSRC ... continuous sequence number
// within the same stream". The two-pass design implements that
// literally:
//
//   - Pass 1 runs every registered prober that has a Probe at every
//     not-yet-consumed offset of every datagram: strong-signature
//     probers consume their span, weak-signature probers (the RTP
//     driver) tally per-SSRC validation evidence into the scan state;
//   - an SSRC is validated when it appears at least twice with at least
//     one sequence-continuous, timestamp-plausible adjacent pair;
//   - Pass 2 re-scans each datagram, accepting strongly-signatured
//     protocols immediately and RTP only for validated SSRCs in
//     sequence order.
//
// Because pass 2 of a datagram consults the validated-SSRC set, a
// single Finalize over the whole stream reproduces the batch
// InspectStream exactly; chunked finalization uses the set as known at
// each chunk boundary (the streaming analyzer's eviction path), which
// is identical unless an SSRC first validates only in a later chunk.
type StreamInspector struct {
	e   *Engine
	m   engineMetrics
	reg *proto.Registry
	// scan is the pass-1 state, persistent across Finalize calls: the
	// probers' scratch stream state plus the validated-SSRC evidence.
	scan *proto.ScanState
	// ctx is the pass-2 context, persistent across Finalize calls so a
	// resumed (fed-again) stream continues its sequence state.
	ctx *StreamContext
	// results is the reused Finalize output buffer; each Finalize
	// overwrites the previous chunk's results, which the pipeline has
	// consumed by then (DESIGN.md §14).
	results []Result
	// drainedAttempts tracks how many shift attempts have already been
	// recorded, so chunked Finalize calls add only the delta.
	drainedAttempts int
	// span, when non-nil, receives the stream's decision trace during
	// pass 2 (pass 1 only tallies evidence and produces no decisions).
	span *obs.Span
}

// SetSpan attaches a decision-trace span; pass 2 of every subsequent
// Finalize emits probe and extraction events into it. A nil span (the
// default) keeps inspection trace-free.
func (si *StreamInspector) SetSpan(sp *obs.Span) { si.span = sp }

// NewStreamInspector returns an inspector with empty per-stream state.
func (e *Engine) NewStreamInspector() *StreamInspector {
	return &StreamInspector{
		e:    e,
		m:    e.metricsHandles(),
		reg:  e.registry(),
		scan: proto.NewScanState(),
	}
}

// scanOne advances pass 1 over one payload.
func (si *StreamInspector) scanOne(payload []byte) {
	limit := si.e.maxOffset()
	i := 0
	for i < len(payload) && i <= limit {
		// Strong-signature probers consume their span so their
		// payloads (e.g. a ChannelData body) are not scanned here;
		// weak-signature probers tally evidence without consuming, so
		// candidate headers advance by one byte because they are not
		// yet trusted. The registry's first-byte table skips probers
		// whose wire format cannot start with this byte, and the
		// bitmap check settles no-prober bytes with a single load.
		if !si.reg.Pass1Possible(payload[i]) {
			i++
			continue
		}
		c := proto.Candidate{Payload: payload, Offset: i}
		consumed := 0
		probers := si.reg.Pass1ProbersFor(payload[i])
		for k := range probers {
			p := &probers[k]
			if c2, ok := p.Probe(c, si.scan); ok {
				consumed = c2.Length
				break
			}
		}
		if consumed > 0 {
			i += consumed
		} else {
			i++
		}
	}
}

// Finalize inspects the next chunk of the stream: the n datagrams
// payload(0) … payload(n-1), in capture order. It runs pass 1 over the
// chunk, then pass 2 with the validated-SSRC set as currently known,
// records the per-datagram metrics, and returns one Result per
// datagram. payload is called only during Finalize and its bytes are
// not retained. The inspector remains usable: the next Finalize
// continues the same stream state.
//
// The returned slice (and the message storage behind it) is a
// per-inspector scratch buffer, valid only until the next Finalize on
// the same inspector; the pipeline consumes each chunk's results
// before inspecting the next (DESIGN.md §14).
func (si *StreamInspector) Finalize(n int, payload func(int) []byte) []Result {
	if si.ctx == nil {
		si.ctx = NewStreamContext()
	}
	// A new epoch recycles the per-stream message and packet arenas:
	// everything extracted in the previous chunk has been consumed.
	si.ctx.State.Epoch++
	si.ctx.Span = si.span
	// Pass 1: one batched sweep over the chunk, tallying validation
	// evidence in capture order before any pass-2 decision is made.
	for i := 0; i < n; i++ {
		si.scanOne(payload(i))
	}
	si.ctx.State.ValidatedSSRC = si.scan.ValidatedSSRC
	out := si.results[:0]
	for i := 0; i < n; i++ {
		start := si.m.latency.Start()
		r := si.e.Inspect(payload(i), si.ctx)
		si.m.latency.ObserveSince(start)
		si.m.classes[r.Class].Inc()
		for _, msg := range r.Messages {
			if int(msg.Protocol) < len(si.m.messages) {
				si.m.messages[msg.Protocol].Inc()
			}
		}
		out = append(out, r)
	}
	si.m.attempts.Add(uint64(si.ctx.shiftAttempts - si.drainedAttempts))
	si.drainedAttempts = si.ctx.shiftAttempts
	si.results = out
	return out
}

// InspectStream runs Algorithm 1 over all datagrams of one transport
// stream, in capture order, with full two-stage validation: one
// StreamInspector finalized once over every payload, which makes the
// batch and streaming paths the same code by construction.
//
// Single-datagram Inspect remains available for stateless use, but the
// pipeline always uses InspectStream or a StreamInspector.
func (e *Engine) InspectStream(payloads [][]byte) []Result {
	return e.NewStreamInspector().Finalize(len(payloads), func(i int) []byte { return payloads[i] })
}
