package benchtest

import (
	"fmt"
	"sort"
	"time"

	"wls/internal/cluster"
	"wls/internal/gossip"
	"wls/internal/vclock"
)

func init() {
	register(Experiment{ID: "A01", Title: "Ablation: heartbeat interval vs failure-detection latency",
		Source: "design note — cadence of the §3.1 dissemination protocol", Run: runA01})
	register(Experiment{ID: "A02", Title: "Ablation: announcement loss vs membership convergence",
		Source: "design note — the bus is best-effort like IP multicast (§3.1)", Run: runA02})
}

// buildMembers starts n members on a fresh virtual clock + bus.
func buildMembers(n int, hb, timeout time.Duration, loss float64, seed int64) (*vclock.Virtual, *gossip.InMemory, []*cluster.Member) {
	clk := vclock.NewVirtualAtZero()
	bus := gossip.NewInMemory(clk, seed)
	if loss > 0 {
		bus.SetLossRate(loss)
	}
	cfg := cluster.Config{Name: "abl", HeartbeatInterval: hb, FailureTimeout: timeout}
	var ms []*cluster.Member
	for i := 0; i < n; i++ {
		m := cluster.NewMember(cfg, clk, bus, cluster.MemberInfo{
			Name:    fmt.Sprintf("s%02d", i),
			Machine: fmt.Sprintf("m%d", i),
		})
		m.Start()
		ms = append(ms, m)
	}
	return clk, bus, ms
}

// runA01: sweep the heartbeat interval; measure how long after a crash the
// survivors notice (virtual time) and the heartbeat traffic paid for it.
func runA01() *Table {
	t := &Table{ID: "A01", Title: "Heartbeat interval vs failure-detection latency",
		Source:  "ablation",
		Columns: []string{"heartbeat", "timeout", "detection_latency", "msgs_per_sec_per_server"},
		Notes:   "faster detection is bought linearly with announcement traffic; the shipped default (100ms/350ms) detects in well under a second at ~10 msgs/s"}

	for _, hb := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond,
		500 * time.Millisecond, 2 * time.Second} {
		timeout := hb*3 + hb/2
		clk, _, ms := buildMembers(4, hb, timeout, 0, 1)
		step := hb / 2
		for i := 0; i < 12; i++ {
			clk.Advance(step)
		}
		// Crash one member; measure when a survivor notices.
		ms[3].Stop()
		crashAt := clk.Now()
		var detect time.Duration = -1
		for i := 0; i < 200; i++ {
			clk.Advance(step)
			if len(ms[0].Alive()) == 3 {
				detect = clk.Since(crashAt)
				break
			}
		}
		msgsPerSec := float64(time.Second) / float64(hb)
		t.AddRow(hb, timeout, detect.Round(time.Millisecond), fmt.Sprintf("%.1f", msgsPerSec))
		for _, m := range ms[:3] {
			m.Stop()
		}
	}
	return t
}

// runA02: sweep announcement loss; measure how many heartbeat rounds a
// 6-server cluster needs to converge to full membership (0 = converged when
// the last Start returned, on join answers alone) and how many heartbeats
// that took. Which deliveries a lossy bus drops varies from run to run, so
// each rate is the median (and worst) of 21 bus seeds.
func runA02() *Table {
	const seeds, maxRounds = 21, 400
	t := &Table{ID: "A02", Title: "Announcement loss vs membership convergence",
		Source:  "ablation",
		Columns: []string{"loss_rate", "rounds_to_converge_p50", "rounds_max", "heartbeats_published_p50", "converged"},
		Notes: "a heard join is answered at once, so without loss the cluster converges with no periodic round at all " +
			"(6 announcements + 15 answers + 5 closing heartbeats); under loss the periodic re-announcement repairs what " +
			"was dropped and every first hearing still draws an answer: convergence degrades gracefully instead of " +
			"failing (the property lossy IP multicast demands). At 75% the 800ms failure timeout also declares live " +
			"peers dead now and then, which is what the worst case waits out."}

	for _, loss := range []float64{0, 0.25, 0.5, 0.75} {
		var rounds, published []int
		converged := 0
		for seed := int64(1); seed <= seeds; seed++ {
			clk, bus, ms := buildMembers(6, 100*time.Millisecond, 800*time.Millisecond, loss, seed)
			full := func() bool {
				for _, m := range ms {
					if len(m.Alive()) != len(ms) {
						return false
					}
				}
				return true
			}
			r := 0
			for ; r < maxRounds && !full(); r++ {
				clk.Advance(100 * time.Millisecond)
			}
			if full() {
				converged++
			}
			p, _ := bus.Stats()
			rounds, published = append(rounds, r), append(published, int(p))
			for _, m := range ms {
				m.Stop()
			}
		}
		sort.Ints(rounds)
		sort.Ints(published)
		t.AddRow(fmt.Sprintf("%.0f%%", loss*100), rounds[seeds/2], rounds[seeds-1], published[seeds/2],
			fmt.Sprintf("%d/%d", converged, seeds))
	}
	return t
}
