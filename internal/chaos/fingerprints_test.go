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
// tables recorded before the executor's two supervision loops became one
// (ISSUE 19): the chaos.txt and recovery.txt parts of `evalharness -chaos`
// and `-supervise -bundle` at seed 7. Every field of a line — outcome,
// simulated duration, fault counts, the per-case fingerprint over the
// recovery statistics — is a deterministic function of the case, so a digest
// that moves names a behaviour change in runtime, sim, supervisor or the
// injector. A change that means to move one re-records it on purpose.
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
	const wantChaos = "6f851a69e57c2cb02d8e9c57cbf6b9fddd88ebdc7f458efbfddbb8b2bf02c49c"
	if got := digest(func(w io.Writer) error { return chaos.WriteFingerprints(w, results) }); got != wantChaos {
		t.Errorf("chaos fingerprint table digest %s, want %s", got, wantChaos)
	}

	rcfg := chaos.DefaultRecoverySweep()
	rcfg.Seeds = []uint64{7}
	recovered, err := chaos.RecoverySweep(context.Background(), rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const wantRecovery = "8496ab8d317611e2837a29ed1a83450bfcc9fb825211575aa0c82b20cedc44f5"
	if got := digest(func(w io.Writer) error { return chaos.WriteRecoveryFingerprints(w, recovered) }); got != wantRecovery {
		t.Errorf("recovery fingerprint table digest %s, want %s", got, wantRecovery)
	}
}
