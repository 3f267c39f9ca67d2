package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/natsim"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

// TestOnlineRemovalsHoldAtClose pins the invariant the online filter
// rests on: the filter's verdict is monotone in the evidence, so every
// stream the Analyzer removes mid-capture — and whose payloads it has
// already dropped — is also removed by the full filter at Close. It
// sweeps app × network × every impairment profile (reorder and jitter
// shuffle arrival order, which is what could break a non-monotone
// rule) at two seeds, plus one zero-CallStart capture per app, where
// the window is unknown until Close.
func TestOnlineRemovalsHoldAtClose(t *testing.T) {
	// check feeds in serially and returns how many streams were removed
	// online, failing for each one the final filter kept.
	check := func(t *testing.T, in CaptureInput) int {
		a, err := NewAnalyzer(AnalyzerConfig{
			Label: in.Label, LinkType: in.LinkType, CallStart: in.CallStart, CallEnd: in.CallEnd,
		}, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range in.Packets {
			if err := a.Feed(p.Timestamp, p.Data); err != nil {
				t.Fatal(err)
			}
		}
		var removed []flow.Key
		for key, st := range a.states {
			if st.removed {
				removed = append(removed, key)
			}
		}
		ca, err := a.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range removed {
			if _, ok := ca.Filter.Removed[key]; !ok {
				t.Errorf("%v removed online but kept by the final filter", key)
			}
		}
		return len(removed)
	}
	generate := func(t *testing.T, app appsim.App, network appsim.Network, p natsim.Profile, seed uint64) CaptureInput {
		cap, err := trace.Generate(trace.CaptureConfig{
			App: app, Network: network, Seed: seed,
			Start: t0, CallDuration: 2 * time.Second, PrePost: 3 * time.Second,
			MediaRate: 10, Background: true, Impair: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cap.Input()
	}

	known := 0
	for _, app := range appsim.Apps {
		for _, network := range appsim.Networks {
			for _, p := range natsim.StandardProfiles() {
				for _, seed := range []uint64{3, 17} {
					t.Run(fmt.Sprintf("%s/%s/%s/%d", app, network, p.Name, seed), func(t *testing.T) {
						known += check(t, generate(t, app, network, p, seed))
					})
				}
			}
		}
	}
	unknown := 0
	for _, app := range appsim.Apps {
		t.Run(fmt.Sprintf("%s/zero-callstart", app), func(t *testing.T) {
			in := generate(t, app, appsim.WiFiRelay, natsim.Profile{}, 3)
			in.CallStart, in.CallEnd = time.Time{}, time.Time{}
			unknown += check(t, in)
		})
	}
	// Guard against a vacuous pass: background traffic trips the
	// window rules once the window is known, and the port and SNI rules
	// even before.
	if known == 0 || unknown == 0 {
		t.Errorf("online removals: %d with the window known, %d unknown; want both > 0", known, unknown)
	}
}
