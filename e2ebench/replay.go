package main

import (
	"fmt"

	"github.com/rtc-compliance/rtcc/internal/compliance"
	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/dpi"
	"github.com/rtc-compliance/rtcc/internal/filterpipe"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/proto"
	"github.com/rtc-compliance/rtcc/internal/qoe"
	"github.com/rtc-compliance/rtcc/internal/report"
)

// replaySpans names the spans the replay records; the self-time table
// groups them by layer (the part of the name before the dot).
var replaySpans = map[string]bool{
	"replay":           true, // glue between the layer calls
	"layers.decode":    true,
	"flow.add":         true,
	"filterpipe.run":   true,
	"dpi.inspect":      true,
	"compliance.check": true,
	"qoe.observe":      true,
	"replay.fold":      true,
}

// replayCounts is the work one replay did, the denominators of the
// per-layer rates.
type replayCounts struct {
	frames, packets        int // frames decoded, packets with a transport layer
	streams, rtcStreams    int // all streams, streams the filter kept
	rtcDgrams              int // datagrams of RTC UDP streams (inspected by DPI)
	messages               int // messages DPI extracted (each checked once)
	verdicts, nonCompliant int
}

func (c *replayCounts) add(o replayCounts) {
	c.frames += o.frames
	c.packets += o.packets
	c.streams += o.streams
	c.rtcStreams += o.rtcStreams
	c.rtcDgrams += o.rtcDgrams
	c.messages += o.messages
	c.verdicts += o.verdicts
	c.nonCompliant += o.nonCompliant
}

// replay redoes the analysis of one capture by calling each layer's
// public entry point in turn — decode, flow grouping, the two-stage
// filter, DPI, compliance and QoE — and folds the verdicts the way
// Close does, with a span around every call. It mirrors the batch
// pipeline (core.BatchAnalyzeCapture), whose output the differential
// suites hold equal to Close's, so its digest (without findings) must
// equal the digest of Close's result for the same capture.
//
// dpiMetrics, when non-nil, receives the DPI engine's counters.
func replay(c *capture, dpiMetrics *metrics.Registry, rec *recorder, parent int) (*core.CaptureAnalysis, replayCounts, error) {
	var n replayCounts
	root := rec.begin("replay", parent)
	defer rec.finish(root)

	in := &c.in
	table := flow.NewTable()
	decodeErrs := 0
	var pkts [feedBatch]layers.Packet
	var decoded [feedBatch]bool
	for off := 0; off < len(in.Packets); off += feedBatch {
		chunk := in.Packets[off:min(off+feedBatch, len(in.Packets))]
		sp := rec.begin("layers.decode", root)
		for i := range chunk {
			decoded[i] = layers.DecodeInto(&pkts[i], in.LinkType, chunk[i].Data) == nil
		}
		rec.finish(sp)
		sp = rec.begin("flow.add", root)
		for i := range chunk {
			if !decoded[i] {
				decodeErrs++
				continue
			}
			if table.Add(chunk[i].Timestamp, &pkts[i]) {
				n.packets++
			}
		}
		rec.finish(sp)
	}
	n.frames = len(in.Packets)
	n.streams = table.Len()
	if table.Len() == 0 && len(in.Packets) > 0 {
		return nil, n, fmt.Errorf("replay %s: no decodable transport packets", in.Label)
	}

	sp := rec.begin("filterpipe.run", root)
	fres := filterpipe.Run(table, filterpipe.Config{CallStart: in.CallStart, CallEnd: in.CallEnd})
	rec.finish(sp)
	n.rtcStreams = len(fres.RTC)

	ca := &core.CaptureAnalysis{
		Label:        in.Label,
		Filter:       fres,
		Stats:        report.NewAppStats(in.Label),
		RTPSSRCs:     make(map[uint32]bool),
		DecodeErrors: decodeErrs,
	}
	for _, s := range table.Streams() {
		ca.Bytes += s.Bytes
	}

	engine := dpi.NewEngine()
	engine.Metrics = dpiMetrics
	checker := compliance.NewChecker()
	reg := proto.Default()
	var feats []qoe.StreamFeatures
	var checked []compliance.Checked
	var obs proto.Observation
	for _, s := range fres.RTC {
		if s.Key.Proto != layers.IPProtocolUDP {
			continue
		}
		payloads := make([][]byte, len(s.Packets))
		for i, p := range s.Packets {
			payloads[i] = p.Payload
		}
		n.rtcDgrams += len(payloads)

		sp := rec.begin("dpi.inspect", root)
		results := engine.InspectStream(payloads)
		rec.finish(sp)

		sp = rec.begin("compliance.check", root)
		session := checker.NewSession()
		checked = checked[:0]
		for i, r := range results {
			for _, m := range r.Messages {
				checked = append(checked, session.Check(m, s.Packets[i].Timestamp)...)
			}
		}
		rec.finish(sp)

		sp = rec.begin("qoe.observe", root)
		q := qoe.NewStream(qoe.Config{})
		for _, p := range s.Packets {
			q.Observe(p.Timestamp, len(p.Payload))
		}
		rec.finish(sp)

		sp = rec.begin("replay.fold", root)
		for _, ck := range checked {
			ca.Stats.AddChecked(ck)
			if !ck.Verdict.Compliant {
				n.nonCompliant++
			}
		}
		n.verdicts += len(checked)
		for _, r := range results {
			ca.Stats.AddDatagram(r.Class)
			n.messages += len(r.Messages)
			for _, m := range r.Messages {
				reg.Observe(m, &obs)
				if obs.HasSSRC {
					ca.RTPSSRCs[obs.SSRC] = true
				}
			}
		}
		feats = append(feats, q.Features(s.Key.String()))
		rec.finish(sp)
	}
	if feats != nil {
		ca.QoE = &qoe.Capture{Streams: feats, Summary: qoe.Summarize(feats)}
	}
	return ca, n, nil
}
