package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"sort"

	"github.com/rtc-compliance/rtcc/internal/core"
	"github.com/rtc-compliance/rtcc/internal/flow"
)

// digest condenses the verdicts of one capture analysis: the filter
// accounting, the per-protocol and per-type tallies, the datagram
// classes, the findings, the RTP SSRC set and the QoE features. Two
// analyses with the same digest reached the same verdicts.
//
// The traced replay cannot compute findings (their detectors have no
// entry point outside the core package), so its digest and the one it
// is compared with leave them out.
func digest(ca *core.CaptureAnalysis, withFindings bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "label %q bytes %d decode_errors %d\n", ca.Label, ca.Bytes, ca.DecodeErrors)
	f := ca.Filter
	for _, c := range []struct {
		name string
		c    flow.Counts
	}{
		{"raw_udp", f.RawUDP}, {"raw_tcp", f.RawTCP},
		{"stage1_udp", f.Stage1UDP}, {"stage1_tcp", f.Stage1TCP},
		{"stage2_udp", f.Stage2UDP}, {"stage2_tcp", f.Stage2TCP},
		{"rtc_udp", f.RTCUDP}, {"rtc_tcp", f.RTCTCP},
	} {
		fmt.Fprintf(h, "%s %d %d %d\n", c.name, c.c.Streams, c.c.Packets, c.c.Bytes)
	}

	st := ca.Stats
	protos := make(map[string]string, len(st.ByProtocol))
	for id, ps := range st.ByProtocol {
		protos[id.String()] = fmt.Sprintf("%d %d %d", ps.Messages, ps.Compliant, ps.Bytes)
	}
	writeSorted(h, "proto", protos)
	types := make(map[string]string, len(st.Types))
	for k, ts := range st.Types {
		reasons := make([]string, 0, len(ts.Reasons))
		for r, n := range ts.Reasons {
			reasons = append(reasons, fmt.Sprintf("%q=%d", r, n))
		}
		sort.Strings(reasons)
		types[k.String()] = fmt.Sprintf("%d %d %v", ts.Total, ts.NonCompliant, reasons)
	}
	writeSorted(h, "type", types)
	classes := make(map[string]string, len(st.Datagrams))
	for c, n := range st.Datagrams {
		classes[c.String()] = fmt.Sprint(n)
	}
	writeSorted(h, "class", classes)
	viol := make(map[string]string, len(st.Violations))
	for c, n := range st.Violations {
		viol[fmt.Sprint(c)] = fmt.Sprint(n)
	}
	writeSorted(h, "violation", viol)

	if withFindings {
		for _, fd := range ca.Findings {
			fmt.Fprintf(h, "finding %s %q %d\n", fd.Kind, fd.Detail, fd.Count)
		}
	}
	ssrcs := make([]uint32, 0, len(ca.RTPSSRCs))
	for s := range ca.RTPSSRCs {
		ssrcs = append(ssrcs, s)
	}
	sort.Slice(ssrcs, func(i, j int) bool { return ssrcs[i] < ssrcs[j] })
	fmt.Fprintf(h, "ssrcs %v\n", ssrcs)
	if ca.QoE != nil {
		q, err := json.Marshal(ca.QoE)
		if err != nil {
			panic(err) // plain structs of numbers and strings always marshal
		}
		fmt.Fprintf(h, "qoe %s\n", q)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeSorted(h hash.Hash, kind string, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s %q %s\n", kind, k, m[k])
	}
}

// combine folds the per-capture digests of one pass into one.
func combine(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintln(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// committedDigests holds the reference digest of each batch workload
// at the default seed, produced by the serial reference pass.
//
//go:embed digests.json
var committedDigests []byte

// committedDigest returns the reference digest stored for a workload.
func committedDigest(workload string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(committedDigests, &m); err != nil {
		return "", fmt.Errorf("parse digests.json: %w", err)
	}
	d, ok := m[workload]
	if !ok {
		return "", fmt.Errorf("digests.json has no digest for %s", workload)
	}
	return d, nil
}
