package chaos_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"chameleon/internal/chaos"
)

// TestFingerprintTablesPinned holds the two default sweeps to the fingerprint
// tables recorded since every phase ends when BGP is quiescent, so a timer
// fires in the phase it falls in: the chaos.txt and recovery.txt parts of
// `evalharness -chaos` and `-supervise -bundle` at seed 7. Every field of a
// line — outcome, simulated duration, fault counts, the per-case fingerprint
// over the recovery statistics — is a deterministic function of the case, so
// a digest that moves names a behaviour change in runtime, sim, supervisor or
// the injector. A change that means to move one re-records it on purpose.
func TestFingerprintTablesPinned(t *testing.T) {
	digest := func(write func(io.Writer) error) string {
		t.Helper()
		h := sha256.New()
		if err := write(h); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}

	cfg := chaos.DefaultSweep()
	cfg.Seeds = []uint64{7}
	results, _, err := chaos.SweepCtx(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const wantChaos = "a91b8e252b41e818699c1ea969d0732224ac828144aea5e4e84f6eb98efe5941"
	if got := digest(func(w io.Writer) error { return chaos.WriteFingerprints(w, results) }); got != wantChaos {
		t.Errorf("chaos fingerprint table digest %s, want %s", got, wantChaos)
	}

	rcfg := chaos.DefaultRecoverySweep()
	rcfg.Seeds = []uint64{7}
	recovered, err := chaos.RecoverySweep(context.Background(), rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const wantRecovery = "c9eb078569a9dc9ec2b445958db54c0f508afdc9f80134d2418ab2480c6b2b50"
	if got := digest(func(w io.Writer) error { return chaos.WriteRecoveryFingerprints(w, recovered) }); got != wantRecovery {
		t.Errorf("recovery fingerprint table digest %s, want %s", got, wantRecovery)
	}
}
