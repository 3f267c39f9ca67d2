// Package dpi implements the paper's two-stage deep packet inspection
// (Algorithm 1): offset-shifting candidate extraction followed by
// protocol-specific validation.
//
// For each UDP datagram payload, the engine slides a cursor from byte
// offset 0 up to the configured limit k (200 by default, per §4.1.1 of
// the paper) and tries the wire-format prober of every registered
// protocol at each offset, in demultiplexing-precedence order. The
// probers and their validation heuristics live in the protocol drivers
// under internal/proto; the engine itself knows no protocol — it
// iterates the registry, so adding a protocol never touches this
// package.
//
// The engine then classifies each datagram (§4.1.2):
//
//   - Standard: a validated message starts at offset 0;
//   - ProprietaryHeader: the first validated message starts later;
//   - FullyProprietary: no validated message anywhere in the payload.
package dpi

import (
	"fmt"

	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/proto"
)

// Protocol identifies the protocol of an extracted message; it is the
// registry's identifier type.
type Protocol = proto.ID

// Protocol identifiers, re-exported from the registry for callers that
// reached them through this package.
const (
	ProtoUnknown     = proto.Unknown
	ProtoSTUN        = proto.STUN
	ProtoChannelData = proto.ChannelData
	ProtoRTP         = proto.RTP
	ProtoRTCP        = proto.RTCP
	ProtoQUIC        = proto.QUIC
	ProtoDTLS        = proto.DTLS
)

// Message is one validated protocol message extracted from a datagram.
type Message = proto.Message

// Class is the datagram classification of §4.1.2.
type Class uint8

// Datagram classes.
const (
	ClassFullyProprietary Class = iota
	ClassStandard
	ClassProprietaryHeader
)

func (c Class) String() string {
	switch c {
	case ClassStandard:
		return "standard"
	case ClassProprietaryHeader:
		return "proprietary header"
	case ClassFullyProprietary:
		return "fully proprietary"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Result is the inspection outcome for one datagram.
type Result struct {
	Class    Class
	Messages []Message
	// ProprietaryHeader is the byte region before the first message
	// (nil for standard and fully proprietary datagrams).
	ProprietaryHeader []byte
}

// StreamContext carries per-stream state across datagrams of one
// transport stream, enabling the cross-message validation heuristics.
// A fresh context must be used per stream, and datagrams must be fed in
// capture order. The protocol-private state lives in the embedded
// registry StreamState's per-protocol slots; the engine adds only its
// own scan bookkeeping.
type StreamContext struct {
	// State is the protocol drivers' per-stream validation state.
	State proto.StreamState

	// Span, when non-nil, receives the stream's decision trace: one
	// probe event per Algorithm 1 step (match or one-byte shift) and
	// one extraction event per datagram. Nil (the default) keeps the
	// probe loop allocation-free — a single pointer test per datagram
	// plus one branch per step.
	Span *obs.Span

	// maxMsgOffset is the deepest offset a validated message has been
	// found at on this stream; msgCount counts validated messages.
	// Both feed the adaptive offset bound.
	maxMsgOffset int
	msgCount     int
	// shiftAttempts accumulates candidate-extraction attempts across
	// the stream's datagrams, for the offset-shift metric.
	// InspectStream drains it into the registry.
	shiftAttempts int
	// scratch receives matchAt's output, valid only until the next
	// matchAt call; a per-context field so the scan loop never zeroes
	// a fresh Message per candidate offset.
	scratch Message
	// msgArena is the epoch-scoped backing store for Result.Messages:
	// Inspect appends each datagram's messages here and hands out a
	// capacity-capped subslice, so the steady-state extraction path
	// allocates nothing. The arena rewinds when State.Epoch advances
	// (one bump per StreamInspector.Finalize) — by then the previous
	// chunk's Results have been consumed (DESIGN.md §14). If append
	// grows the arena mid-epoch, earlier subslices keep pointing into
	// the old backing array, which is never written again, so they
	// stay valid.
	msgArena []Message
	msgEpoch uint64
}

// NewStreamContext returns an empty per-stream context.
func NewStreamContext() *StreamContext {
	return &StreamContext{}
}

// Engine runs Algorithm 1.
type Engine struct {
	// MaxOffset is k, the deepest byte offset candidate extraction will
	// shift to. The paper found 200 sufficient (§4.1.1).
	MaxOffset int
	// Adaptive enables the per-stream adaptive offset bound the paper
	// sketches as future work (§4.1.1): once a stream has shown where
	// its proprietary headers end, later datagrams are only scanned to
	// twice that depth (with a small floor), cutting the cost of
	// scanning fully proprietary datagrams such as Zoom's 1000-byte
	// fillers.
	Adaptive bool
	// Metrics, when non-nil, receives per-datagram instrumentation
	// from InspectStream: offset-shift attempts, classification
	// outcomes, extracted message counts, and extraction latency. Nil
	// disables collection at zero cost.
	Metrics *metrics.Registry
	// Registry selects the protocol set to probe with; nil means the
	// process-wide default registry. Restrict the set with
	// proto.Registry.Without.
	Registry *proto.Registry
}

// NewEngine returns an engine with the paper's default k=200 and every
// protocol of the default registry.
func NewEngine() *Engine {
	return &Engine{MaxOffset: 200}
}

func (e *Engine) registry() *proto.Registry {
	if e.Registry != nil {
		return e.Registry
	}
	return proto.Default()
}

// Inspect runs candidate extraction and validation over one datagram
// payload, updating ctx. ctx may be nil for stateless inspection.
func (e *Engine) Inspect(payload []byte, ctx *StreamContext) Result {
	if ctx == nil {
		ctx = NewStreamContext()
	}
	reg := e.registry()
	tracing := ctx.Span != nil
	if tracing {
		ctx.Span.BeginDatagram()
	}
	if ctx.msgEpoch != ctx.State.Epoch {
		ctx.msgEpoch = ctx.State.Epoch
		ctx.msgArena = ctx.msgArena[:0]
	}
	start := len(ctx.msgArena)
	limit := e.MaxOffset
	if limit <= 0 {
		limit = 200
	}
	// Adaptive bound: after enough messages, no deeper proprietary
	// header is expected than twice the deepest seen (floor 48 bytes).
	if e.Adaptive && ctx.msgCount >= 16 {
		if adaptive := maxInt(48, 2*ctx.maxMsgOffset+8); adaptive < limit {
			limit = adaptive
		}
	}
	i := 0
	for i < len(payload) {
		if i > limit && len(ctx.msgArena) == start {
			break
		}
		ctx.shiftAttempts++
		if !e.matchAt(reg, payload, i, &ctx.State, &ctx.scratch) {
			if tracing {
				ctx.Span.Probe(i, payload[i], "", obs.OutcomeShift)
			}
			i++
			continue
		}
		m := ctx.scratch
		if tracing {
			name := ""
			if meta, ok := reg.Meta(m.Protocol); ok {
				name = meta.Name
			}
			ctx.Span.Probe(i, payload[i], name, obs.OutcomeMatch)
		}
		// A driver's Accept hook post-processes the accepted message
		// against its full datagram (the RTP driver truncates at a
		// strong second candidate and records sequence state).
		if a := reg.Accepter(m.Protocol); a != nil {
			m = a.Accept(payload, m, &ctx.State)
		}
		ctx.msgArena = append(ctx.msgArena, m)
		ctx.msgCount++
		if m.Offset > ctx.maxMsgOffset {
			ctx.maxMsgOffset = m.Offset
		}
		i = m.Offset + m.Length
	}
	var res Result
	// Cap the subslice at its length so a later datagram's append can
	// never write into this Result's message run.
	msgs := ctx.msgArena[start:len(ctx.msgArena):len(ctx.msgArena)]
	if len(msgs) > 0 {
		res.Messages = msgs
	}
	switch {
	case len(msgs) == 0:
		res.Class = ClassFullyProprietary
	case msgs[0].Offset == 0:
		res.Class = ClassStandard
	default:
		res.Class = ClassProprietaryHeader
		res.ProprietaryHeader = payload[:msgs[0].Offset]
	}
	if tracing {
		ctx.Span.Extraction(res.Class.String(), len(msgs))
	}
	return res
}

// matchAt tries the registry's probers admitted by the first payload byte
// at payload[i:], in registry precedence order: protocols with stronger
// structural signatures win (STUN's magic cookie before ChannelData
// framing before the RTCP type range before QUIC and DTLS before the
// weak classic-STUN and RTP patterns). The registry's first-byte table
// (RFC 7983-style demultiplexing) skips probers whose wire format
// cannot start with that byte.
//
// The match is written through out rather than returned: matchAt runs
// once per candidate offset of every payload, and returning a Message
// by value made the scan loop zero and copy ~100 bytes per miss —
// the hot path's single largest cost before the out-parameter form.
func (e *Engine) matchAt(reg *proto.Registry, payload []byte, i int, st *proto.StreamState, out *Message) bool {
	c := proto.Candidate{Payload: payload, Offset: i}
	probers := reg.ProbersFor(payload[i])
	for k := range probers {
		p := &probers[k]
		if m, ok := p.Validate(c, st); ok {
			m.Offset = i
			*out = m
			return true
		}
	}
	return false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
