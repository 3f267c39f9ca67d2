package dpi

import (
	"bytes"
	"testing"

	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/rtcp"
	"github.com/rtc-compliance/rtcc/internal/rtp"
)

// FuzzInspect checks the engine's structural invariants on arbitrary
// datagrams: no panics, non-overlapping in-bounds message spans, and
// classification consistency.
func FuzzInspect(f *testing.F) {
	f.Add([]byte{0x80, 0x60, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0xaa})
	f.Add([]byte{0x00, 0x01, 0x00, 0x00, 0x21, 0x12, 0xa4, 0x42})

	// Corpus entries mirroring the proprietary-header shapes the appsim
	// emulators emit (§5.2/§5.3), so the fuzzer starts from the wire
	// formats the pipeline actually has to classify.
	media := (&rtp.Packet{PayloadType: 111, SequenceNumber: 7, Timestamp: 960, SSRC: 0x1000C01,
		Payload: bytes.Repeat([]byte{0x5a}, 64)}).Encode()
	// Zoom: direction byte, 0x10, constant 4-byte media ID, opaque SFU
	// words, media-section type (15 = audio RTP), opaque trailer, then
	// the RTP message.
	zoomHdr := []byte{0x00, 0x10, 0x01, 0x00, 0x0C, 0x01, 1, 3, 5, 7, 9, 11, 13, 15, 15, 2, 4, 6, 8, 10, 12, 14, 16}
	f.Add(append(append([]byte(nil), zoomHdr...), media...))
	// Zoom filler: a large datagram of one repeated byte (bandwidth
	// probing; fully proprietary).
	f.Add(bytes.Repeat([]byte{0xab}, 1000))
	// FaceTime: 0x6000 magic, 2-byte length of the remainder, opaque
	// bytes, then the wrapped RTP message (with an undefined extension
	// profile, as FaceTime sends).
	ftMedia := (&rtp.Packet{PayloadType: 104, SequenceNumber: 9, Timestamp: 1920, SSRC: 0xfeed,
		Extension: &rtp.Extension{Profile: 0x8001, Elements: []rtp.ExtensionElement{{ID: 1, Payload: []byte{1, 2}}}},
		Payload:   bytes.Repeat([]byte{0x33}, 48)}).Encode()
	ft := []byte{0x60, 0x00, byte((4 + len(ftMedia)) >> 8), byte(4 + len(ftMedia)), 0xaa, 0xbb, 0xcc, 0xdd}
	f.Add(append(ft, ftMedia...))
	// FaceTime cellular keepalive: 36 bytes starting 0xDEADBEEFCAFE with
	// two trailing 4-byte counters.
	ka := make([]byte, 36)
	copy(ka, []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE})
	ka[31], ka[35] = 3, 7
	f.Add(ka)
	// Meet: relay video inside a TURN ChannelData frame.
	cd := append([]byte{0x40, 0x01, byte(len(media) >> 8), byte(len(media))}, media...)
	f.Add(cd)
	// Meet: SRTCP with only the 4-byte E-flag+index trailer, missing the
	// RFC 3711 auth tag (the paper's headline RTCP violation).
	sr := rtcp.EncodeSR(&rtcp.SenderReport{SSRC: 0x1000C01, Info: rtcp.SenderInfo{NTPTimestamp: 1}})
	f.Add(append(append([]byte(nil), sr...), 0x80, 0x00, 0x00, 0x2a))
	e := NewEngine()
	f.Fuzz(func(t *testing.T, data []byte) {
		res := e.Inspect(data, nil)
		end := 0
		for _, m := range res.Messages {
			if m.Offset < end || m.Length <= 0 || m.Offset+m.Length > len(data) {
				t.Fatalf("bad span %d+%d (prev end %d, len %d)", m.Offset, m.Length, end, len(data))
			}
			end = m.Offset + m.Length
		}
		switch res.Class {
		case ClassStandard:
			if len(res.Messages) == 0 || res.Messages[0].Offset != 0 {
				t.Fatal("standard class without offset-0 message")
			}
		case ClassFullyProprietary:
			if len(res.Messages) != 0 {
				t.Fatal("fully proprietary with messages")
			}
		}
		// The strict baseline must never find more than... anything; it
		// just must not panic.
		StrictEngine{}.Inspect(data)
	})
}

// paritySep splits a FuzzInspectParity input into datagrams.
var paritySep = []byte{0xff, 0xff, 0xff}

// FuzzInspectParity differentially checks the registry engine against
// the frozen pre-registry chain in baseline_bench_test.go: the input is
// split into datagrams on ff ff ff, both engines inspect them in order
// on one stream, and every datagram's class and message spans must
// agree. The baseline predates the DTLS driver, so the registry side
// runs without it.
func FuzzInspectParity(f *testing.F) {
	f.Add(bytes.Join(dispatchCorpus(), paritySep))
	e := &Engine{MaxOffset: 200, Registry: proto.Default().Without(proto.DTLS)}
	be := &baselineEngine{MaxOffset: 200}
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, bctx := NewStreamContext(), newBaselineContext()
		var got, want []Result
		for _, d := range bytes.Split(data, paritySep) {
			got = append(got, e.Inspect(d, ctx))
			want = append(want, be.Inspect(d, bctx))
		}
		if g, w := summarize(got), summarize(want); g != w {
			t.Fatalf("registry diverged from frozen baseline:\nregistry: %s\nbaseline: %s", g, w)
		}
	})
}
