package e2e

// Network-chaos drill, black box: a coordinator launched with a -chaos
// plan partitions one of its two workers mid-screen. The coordinator's
// bounded, fenced client declares the victim dead and re-splits its
// unfinished ligands; when the partition heals the victim's heartbeats
// revive it under a fresh epoch and it rejoins. The merged ranking must
// still be byte-identical to the single-node baseline, with every ligand
// merged exactly once.

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestDistributedChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real server binaries")
	}
	bin := buildServer(t)

	// The chaos plan targets a worker by host:port, so its address must be
	// known before the coordinator starts: reserve the workers' and the
	// coordinator's ports together, so none of the three collide. Plan
	// time runs from the coordinator's first worker request — the first
	// shard dispatch — so "partition@2s" means two seconds into the screen.
	addrs := freeAddrs(t, 3)
	victimAddr, healthyAddr, coordAddr := addrs[0], addrs[1], addrs[2]
	plan := fmt.Sprintf("%s:partition@2s+5s,%s:latency@20ms±10ms", victimAddr, victimAddr)
	coordURL, _ := startProc(t, bin, coordAddr,
		"-role", "coordinator",
		"-chaos", plan, "-chaos-seed", "7",
		"-request-timeout", "750ms",
		"-worker-attempts", "2",
		"-worker-retry-delay", "50ms",
		"-worker-timeout", "2s",
		"-poll-interval", "50ms")
	for _, addr := range []string{victimAddr, healthyAddr} {
		startProc(t, bin, addr,
			"-role", "worker", "-coordinator", coordURL, "-heartbeat", "200ms",
			"-workers", "1", "-screen-workers", "1")
	}
	waitAlive := func(want int, timeout time.Duration, context string) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			var rows []workerRow
			getJSON(t, coordURL+"/v1/workers", &rows)
			alive := 0
			for _, r := range rows {
				if r.Alive {
					alive++
				}
			}
			if alive == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d workers alive, want %d", context, alive, want)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	waitAlive(2, 15*time.Second, "startup")

	// Long enough that the partition window (2 s into the screen) lands
	// before the first shard is half done on two sequential-docking
	// workers: a worker on an AVX2 CPU docks ~24 of these ligands a second,
	// so each 160-ligand shard is ~6.7 s of work and the partition lands
	// about 30 % in. The portable kernel is slower, which only moves the
	// partition earlier.
	chaosScreen := distScreen
	chaosScreen.Library = 320
	chaosScreen.Scale = 0.35

	// Single-node baseline on the worker that will stay healthy.
	baseline := submitDist(t, "http://"+healthyAddr, chaosScreen)
	ref := waitDist(t, "http://"+healthyAddr, baseline.ID, 120*time.Second, terminalDist)
	if ref.State != "done" {
		t.Fatalf("baseline screen ended %s: %s", ref.State, ref.Error)
	}

	v := submitDist(t, coordURL, chaosScreen)

	// The partition must bite: the victim's request failures cross the
	// death threshold even though its heartbeats (worker→coordinator, not
	// routed through the chaos transport) never stop.
	deadline := time.Now().Add(60 * time.Second)
	for metricValue(t, getText(t, coordURL+"/metrics"), "metascreen_dist_worker_deaths_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("partitioned worker never declared dead")
		}
		time.Sleep(100 * time.Millisecond)
	}

	final := waitDist(t, coordURL, v.ID, 180*time.Second, terminalDist)
	if final.State != "done" {
		t.Fatalf("screen ended %s under chaos: %s", final.State, final.Error)
	}
	if got, want := rankingBytes(t, final.Result.Ranking), rankingBytes(t, ref.Result.Ranking); got != want {
		t.Fatalf("post-chaos ranking != 1-node ranking:\n got %s\nwant %s", got, want)
	}
	if final.Result.SimulatedSeconds != ref.Result.SimulatedSeconds {
		t.Errorf("simulated_seconds %v != baseline %v", final.Result.SimulatedSeconds, ref.Result.SimulatedSeconds)
	}
	if final.Resplits < 1 {
		t.Errorf("partition produced %d resplits, want >= 1", final.Resplits)
	}

	metrics := getText(t, coordURL+"/metrics")
	// Exactly one merge per target ligand — the no-double-merge invariant,
	// visible as a counter because stale partials are fenced, not merged.
	if merged := metricValue(t, metrics, "metascreen_dist_ligands_merged_total"); merged != float64(chaosScreen.Library) {
		t.Errorf("%v ligand merges for a %d-ligand screen (double merge?)", merged, chaosScreen.Library)
	}
	if metricValue(t, metrics, "metascreen_dist_reshards_total") < 1 {
		t.Error("reshard counter did not move under chaos")
	}

	// The healed victim rejoins under a fresh epoch.
	waitAlive(2, 30*time.Second, "after heal")
}

// TestChaosPlanChecked: every role parses -chaos at startup, so a bad
// plan, or network clauses on a role that sends no worker requests, is a
// startup error rather than a process that silently injects nothing. A
// negative count or duration is a startup error too, not a silent
// default. A disk-only plan boots on a node.
func TestChaosPlanChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches real server binaries")
	}
	bin := buildServer(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-role", "node", "-chaos", "garbage"}, "bad fault clause"},
		{[]string{"-role", "node", "-chaos", "*:eio@NaN"}, "not a finite number"},
		{[]string{"-role", "node", "-chaos", "*:melt@1"}, "unknown fault kind"},
		{[]string{"-role", "node", "-chaos", "127.0.0.1:8081:error@0.5"}, "need -role coordinator"},
		{[]string{"-role", "worker", "-coordinator", "http://127.0.0.1:1", "-chaos", "*.wal:eio@0.1,*:latency@5ms"}, "need -role coordinator"},
		{[]string{"-workers", "-2"}, "-workers -2: want 0 or more"},
		{[]string{"-queue", "-5"}, "-queue -5: want 0 or more"},
		{[]string{"-checkpoint-every", "-3"}, "-checkpoint-every -3: want 0 or more"},
		{[]string{"-role", "worker", "-coordinator", "http://127.0.0.1:1", "-heartbeat", "-1s"}, "-heartbeat -1s: want 0 or more"},
		{[]string{"-target-latency", "-1s"}, "-target-latency -1s: want 0 or more"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		out, err := exec.CommandContext(ctx, bin, append([]string{"-addr", freeAddrs(t, 1)[0]}, c.args...)...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), c.want) {
			t.Errorf("vsserved %q: %v, output %q; want exit 1 naming %q", c.args, err, out, c.want)
		}
	}
	startServer(t, bin, "-chaos", "*.wal:fsync-fail@0.001", "-chaos-seed", "3")
}
