package dpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/ice"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
	"github.com/rtc-compliance/rtcc/internal/stun"
)

// dispatchCorpus builds a representative datagram mix: standard
// messages of every family, a proprietary-header datagram, and a
// fully-proprietary filler (the probe path's worst case — every offset
// is tried against every prober and nothing matches).
func dispatchCorpus() [][]byte {
	r := ice.NewRand(42)
	var corpus [][]byte

	corpus = append(corpus, ice.ServerBindingRequest(r).Raw)

	inner := rtpPacket(9, 1, bytes.Repeat([]byte{0xAB}, 120))
	cd := &stun.ChannelData{ChannelNumber: 0x4001, Data: inner}
	corpus = append(corpus, cd.Encode())

	for seq := uint16(2); seq < 10; seq++ {
		corpus = append(corpus, rtpPacket(9, seq, bytes.Repeat([]byte{0xCD}, 160)))
	}

	comp := rtcp.Compound(
		rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 9, Info: rtcp.SenderInfo{NTPTimestamp: 1}}),
		rtcp.EncodeSDES(&rtcp.SDES{Chunks: []rtcp.SDESChunk{{SSRC: 9, Items: []rtcp.SDESItem{{Type: rtcp.SDESCNAME, Text: "x@y"}}}}}),
	)
	corpus = append(corpus, comp)

	// Zoom-style proprietary header before an RTP message.
	hdr := append([]byte{0x05, 0x10, 0x00, 0x01}, rtpPacket(9, 10, bytes.Repeat([]byte{0xEF}, 140))...)
	corpus = append(corpus, hdr)

	truncate, whole := acceptCases()
	corpus = append(corpus, truncate...)
	corpus = append(corpus, whole...)

	// Fully proprietary filler: 1000 bytes, no match at any offset.
	corpus = append(corpus, bytes.Repeat([]byte{0x01}, 1000))
	return corpus
}

// acceptCases returns RTP datagrams of SSRC 9, continuing
// dispatchCorpus's sequence numbers, that exercise the RTP driver's
// Accept-time search for a second message inside the RTP payload. Each
// truncate datagram embeds a strong second message and must be cut in
// front of it: a magic-cookie STUN message, an RTCP compound whose
// sender SSRC the stream already knows, and Zoom's second RTP header
// with the same SSRC and a new sequence number. Each whole datagram
// puts a cookie, the outer SSRC or an RTCP header within the payload's
// last 12-19 bytes, where no full message fits, and must stay one
// message. The 0xCD
// filler has top bits 11, so no offset before the embedded bytes is a
// candidate.
func acceptCases() (truncate, whole [][]byte) {
	filler := bytes.Repeat([]byte{0xCD}, 40)
	embed := func(seq uint16, parts ...[]byte) []byte {
		payload := append([]byte(nil), filler...)
		for _, p := range parts {
			payload = append(payload, p...)
		}
		return rtpPacket(9, seq, payload)
	}
	ts := func(seq uint16) []byte { return binary.BigEndian.AppendUint32(nil, uint32(seq)*960) }
	ssrc9 := []byte{0, 0, 0, 9}

	stunMsg := ice.ServerBindingRequest(ice.NewRand(7)).Raw
	comp := rtcp.Compound(rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 9, Info: rtcp.SenderInfo{NTPTimestamp: 2}}))
	truncate = [][]byte{
		embed(11, stunMsg),
		embed(12, comp),
		embed(13, rtpPacket(9, 14, bytes.Repeat([]byte{0xCD}, 60))),
	}

	cookieTail := []byte{0x00, 0x01, 0x00, 0x00, 0x21, 0x12, 0xA4, 0x42}
	whole = [][]byte{
		// Cookie 16 bytes before the end: short of a 20-byte header.
		embed(15, cookieTail, filler[:8]),
		// Outer SSRC 14 bytes before the end, behind a header whose
		// extension bit claims more bytes than remain.
		embed(16, []byte{0x90, 0x60, 0, 17}, ts(17), ssrc9, filler[:2]),
		// A whole RTP header in the last 12 bytes, past the search.
		embed(17, []byte{0x80, 0x60, 0, 18}, ts(18), ssrc9),
		// An RTCP sender report header 19 bytes before the end whose
		// declared length overruns the payload.
		embed(18, []byte{0x80, 0xC8, 0x00, 0x06}, ssrc9, filler[:11]),
	}
	return truncate, whole
}

// summarize flattens an inspection for parity comparison.
func summarize(results []Result) string {
	var b bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&b, "%d:", r.Class)
		for _, m := range r.Messages {
			fmt.Fprintf(&b, "%d@%d+%d,", m.Protocol, m.Offset, m.Length)
		}
		b.WriteByte(';')
	}
	return b.String()
}

// TestDispatchParityWithBaseline proves the registry dispatch extracts
// exactly what the frozen pre-registry chain did, datagram for
// datagram, over the representative corpus.
func TestDispatchParityWithBaseline(t *testing.T) {
	corpus := dispatchCorpus()

	e := NewEngine()
	ctx := NewStreamContext()
	var got []Result
	for _, p := range corpus {
		got = append(got, e.Inspect(p, ctx))
	}

	be := &baselineEngine{MaxOffset: 200}
	bctx := newBaselineContext()
	var want []Result
	for _, p := range corpus {
		want = append(want, be.Inspect(p, bctx))
	}

	if g, w := summarize(got), summarize(want); g != w {
		t.Fatalf("registry dispatch diverged from frozen baseline:\nregistry: %s\nbaseline: %s", g, w)
	}

	// Parity alone would pass if both engines stopped truncating; pin
	// that the Accept-path cases reach the cut they were built for.
	truncate, whole := acceptCases()
	resultOf := func(d []byte) Result {
		return got[slices.IndexFunc(corpus, func(p []byte) bool { return bytes.Equal(p, d) })]
	}
	for k, d := range truncate {
		r := resultOf(d)
		if len(r.Messages) < 2 || r.Messages[0].Protocol != ProtoRTP || r.Messages[0].Length >= len(d) {
			t.Errorf("truncate case %d: RTP message not cut at the embedded message: %s", k, summarize([]Result{r}))
		}
	}
	for k, d := range whole {
		r := resultOf(d)
		if len(r.Messages) != 1 || r.Messages[0].Length != len(d) {
			t.Errorf("whole case %d: RTP message was cut: %s", k, summarize([]Result{r}))
		}
	}
}

// TestProbePathAllocationFree pins the zero-allocation guarantee of the
// registry probe path: scanning a fully proprietary datagram — 1000
// offsets, every prober tried and rejected at each — must not allocate.
func TestProbePathAllocationFree(t *testing.T) {
	filler := bytes.Repeat([]byte{0x01}, 1000)
	e := NewEngine()
	ctx := NewStreamContext()
	e.Inspect(filler, ctx) // warm per-stream state
	if avg := testing.AllocsPerRun(100, func() {
		e.Inspect(filler, ctx)
	}); avg != 0 {
		t.Errorf("probe path allocates: %.1f allocs/op, want 0", avg)
	}
}

// acceptInspector returns a function that inspects, on one warm stream,
// a 1000-byte RTP datagram whose payload holds no embedded candidate:
// the message is matched, then searched at every payload offset by the
// RTP driver's Accept hook. Each call advances the sequence number so
// the message keeps validating, and bumps the epoch as every Finalize
// does, so the message arena and packet slab recycle.
func acceptInspector() func() Result {
	// A payload stride that visits every top-bit pattern, so both the
	// STUN and the RTP/RTCP branches of the search are exercised.
	payload := make([]byte, 1000-rtp.HeaderLen)
	for i := range payload {
		payload[i] = byte(i*37 + 11)
	}
	pkt := rtpPacket(9, 1, payload)
	e := NewEngine()
	ctx := NewStreamContext()
	seq := uint16(1)
	return func() Result {
		ctx.State.Epoch++
		binary.BigEndian.PutUint16(pkt[2:], seq)
		seq++
		return e.Inspect(pkt, ctx)
	}
}

// TestAcceptPathAllocationFree extends the zero-allocation guarantee to
// accepted RTP, whose Accept hook searches the whole payload.
func TestAcceptPathAllocationFree(t *testing.T) {
	inspect := acceptInspector()
	if r := inspect(); len(r.Messages) != 1 || r.Messages[0].Length != 1000 {
		t.Fatalf("want one whole 1000-byte RTP message, got %s", summarize([]Result{r}))
	}
	if avg := testing.AllocsPerRun(100, func() { inspect() }); avg != 0 {
		t.Errorf("accept path allocates: %.1f allocs/op, want 0", avg)
	}
}

// BenchmarkDispatchAccept isolates the Accept-time search: one accepted
// 1000-byte RTP datagram per op, no embedded candidate.
func BenchmarkDispatchAccept(b *testing.B) {
	inspect := acceptInspector()
	inspect()
	b.ReportAllocs()
	b.SetBytes(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inspect()
	}
}

// BenchmarkDispatchRegistry measures the registry-driven Inspect over
// the mixed corpus. Compare against BenchmarkDispatchBaseline:
//
//	go test ./internal/dpi -run=^$ -bench=BenchmarkDispatch -benchmem
func BenchmarkDispatchRegistry(b *testing.B) {
	corpus := dispatchCorpus()
	e := NewEngine()
	ctx := NewStreamContext()
	for _, p := range corpus {
		e.Inspect(p, ctx)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range corpus {
			e.Inspect(p, ctx)
		}
	}
}

// BenchmarkDispatchBaseline measures the frozen pre-registry hardcoded
// chain over the same corpus.
func BenchmarkDispatchBaseline(b *testing.B) {
	corpus := dispatchCorpus()
	e := &baselineEngine{MaxOffset: 200}
	ctx := newBaselineContext()
	for _, p := range corpus {
		e.Inspect(p, ctx)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range corpus {
			e.Inspect(p, ctx)
		}
	}
}

// BenchmarkDispatchProbeMiss isolates the probe path: a fully
// proprietary datagram where every offset misses. This is the
// allocation-free path the registry must not regress.
func BenchmarkDispatchProbeMiss(b *testing.B) {
	filler := bytes.Repeat([]byte{0x01}, 1000)
	e := NewEngine()
	ctx := NewStreamContext()
	e.Inspect(filler, ctx)
	b.ReportAllocs()
	b.SetBytes(int64(len(filler)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Inspect(filler, ctx)
	}
}
