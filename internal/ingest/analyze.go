package ingest

import (
	"io"
	"time"

	"github.com/rtc-compliance/rtcc/internal/bufpool"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/pcap"
)

// AnalyzeCapture runs the full pipeline over one in-memory capture
// through the sharded tier — the sharded sibling of core.AnalyzeCapture,
// with the same analyzer configuration (frames referenced in place,
// payloads retained, no eviction) so the two are byte-identical on any
// input.
func AnalyzeCapture(in core.CaptureInput, opts core.Options, cfg Config) (*core.CaptureAnalysis, error) {
	opts.KeepPayloads, opts.EvictIdle = true, 0
	sa, err := New(core.AnalyzerConfig{
		Label:        in.Label,
		LinkType:     in.LinkType,
		CallStart:    in.CallStart,
		CallEnd:      in.CallEnd,
		FramesStable: true,
	}, opts, cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range in.Packets {
		if err := sa.Feed(p.Timestamp, p.Data); err != nil {
			return nil, err
		}
	}
	return sa.Close()
}

// AnalyzePCAP analyzes a capture stream through the sharded tier — the
// sharded sibling of core.AnalyzePCAP, built on the same StreamCapture
// reading loop with a ShardedAnalyzer as the sink. The analyzer
// configuration matches core.AnalyzePCAP (window defaulting, pooled
// payload buffers unless opts.KeepPayloads), which is what makes the
// two paths byte-identical on any capture.
func AnalyzePCAP(r io.Reader, label string, callStart, callEnd time.Time, opts core.Options, cfg Config) (*core.CaptureAnalysis, error) {
	acfg := core.AnalyzerConfig{Label: label, CallStart: callStart, CallEnd: callEnd}
	if !opts.KeepPayloads {
		acfg.Pool = bufpool.Global()
	}
	return core.StreamCapture(r, func(lt pcap.LinkType) (core.FrameSink, error) {
		acfg.LinkType = lt
		return New(acfg, opts, cfg)
	})
}
