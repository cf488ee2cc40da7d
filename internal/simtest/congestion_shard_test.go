package simtest

import (
	"runtime"
	"testing"
)

// TestCongestionShardedDeterminism: a congestion-laden spec — ECN
// marking, DCQCN pacing, incast/storm generators injecting through the
// lax cross-domain post — must produce the same fingerprint on the
// sharded engine regardless of worker count, and match shard count 1
// exactly (fingerprints depend on engine mode 0 vs >= 1, not on N).
// Congestion traffic is the adversarial case for shard determinism:
// generator RNGs live on the control engine while marks and pacing
// decisions happen inside per-switch domains.
func TestCongestionShardedDeterminism(t *testing.T) {
	want := 2
	if testing.Short() {
		want = 1
	}
	ran := 0
	for seed := uint64(0); seed < 200 && ran < want; seed++ {
		spec := WithCongestion(Generate(seed))
		if !congested(&spec.Scenario.Congestion) {
			continue
		}
		base := Run(spec, Options{Shards: 1})
		if !base.OK() {
			t.Errorf("seed %d shards=1: %v", seed, base.Violations)
		}
		if base.Fingerprint == 0 {
			t.Fatalf("seed %d: degenerate zero fingerprint", seed)
		}
		for _, w := range []int{2, 3, runtime.GOMAXPROCS(0)} {
			r := Run(spec, Options{Shards: w})
			if r.Fingerprint != base.Fingerprint {
				t.Errorf("seed %d: shards=%d fingerprint %016x != shards=1 %016x\nspec: %s",
					seed, w, r.Fingerprint, base.Fingerprint, spec.MarshalCompact())
			}
		}
		ran++
	}
	if ran == 0 {
		t.Fatal("no active congestion spec in 200 seeds — generation broken")
	}
}
