package chaos

import (
	"math/rand"
	"path/filepath"
	"testing"

	"peak/internal/serve"
	"peak/internal/store"
)

// TestGenSpecsDistinct: the pool generator must never hand the server two
// requests with the same canonical spec — a collision would silently halve
// the pool through job dedup and break the exactly-once ledger.
func TestGenSpecsDistinct(t *testing.T) {
	specs := genSpecs(88)
	seen := map[string]string{}
	for _, sc := range specs {
		s := serve.New(serve.Options{})
		res, code, err := s.Submit(sc.req)
		if err != nil {
			t.Fatalf("spec %s invalid: %v", sc.key, err)
		}
		if code != 202 {
			t.Fatalf("spec %s: code %d", sc.key, code)
		}
		if prev, dup := seen[res.Spec]; dup {
			t.Fatalf("pool keys %s and %s share canonical spec %s", prev, sc.key, res.Spec)
		}
		seen[res.Spec] = sc.key
	}
}

// TestTearJournalDamagesTail: both tear modes leave a file whose reopen
// reports dropped bytes and whose surviving records still load.
func TestTearJournalDamagesTail(t *testing.T) {
	for _, mode := range []string{"truncate", "flip"} {
		path := filepath.Join(t.TempDir(), "j.journal")
		j, err := store.NewJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := j.Append(store.Record{ID: "id", Round: i + 1,
				State: []byte(`{"x":1}`)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		// tearJournal draws its mode from the rng; pin it per case.
		var rng *rand.Rand
		for seed := int64(0); ; seed++ {
			rng = rand.New(rand.NewSource(seed))
			want := 0
			if mode == "flip" {
				want = 1
			}
			if rng.Intn(2) == want {
				rng = rand.New(rand.NewSource(seed))
				break
			}
		}
		torn, err := tearJournal(path, rng)
		if err != nil || !torn {
			t.Fatalf("%s: tearJournal = %v, %v", mode, torn, err)
		}
		j2, err := store.OpenJournal(path)
		if err != nil {
			t.Fatalf("%s: reopen: %v", mode, err)
		}
		rec := j2.Recovery()
		if rec.DroppedBytes == 0 {
			t.Errorf("%s: tear went undetected: %+v", mode, rec)
		}
		if rec.Records != 2 {
			t.Errorf("%s: %d records survived, want 2", mode, rec.Records)
		}
		latest, ok := j2.Latest("id")
		if !ok || latest.Round != 2 {
			t.Errorf("%s: latest surviving round = %+v, want round 2", mode, latest)
		}
		j2.Close()
	}
}

// TestChaosRunSmoke is the tier-1 chaos check: a small seeded schedule
// must finish with an empty violation list — no lost, duplicated or
// divergent jobs, every injected tear detected.
func TestChaosRunSmoke(t *testing.T) {
	rep, err := Run(Config{
		Jobs: 6, Seed: 1, Epochs: 2, Dir: t.TempDir(),
		Log: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.Format())
	if len(rep.Violations) != 0 {
		t.Fatalf("chaos violations:\n%s", rep.Format())
	}
	if rep.Completed != rep.Specs {
		t.Fatalf("completed %d of %d specs", rep.Completed, rep.Specs)
	}
	if rep.BreakerOpens == 0 || rep.BreakerShed503 == 0 {
		t.Errorf("breaker phase did not exercise shedding: %+v", rep)
	}
}

// TestChaosTearsJournal: a schedule whose seeded draws would tear nothing
// still tears the journal in its last chaos epoch, so every run exercises
// torn-journal recovery; seed 1 over one epoch draws no tear of its own.
func TestChaosTearsJournal(t *testing.T) {
	rep, err := Run(Config{Jobs: 4, Seed: 1, Epochs: 1, Dir: t.TempDir(), Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + rep.Format())
	if len(rep.Violations) != 0 {
		t.Fatalf("chaos violations:\n%s", rep.Format())
	}
	if rep.TearsInjected < 1 || rep.DroppedBytes == 0 {
		t.Fatalf("%d tear(s) injected, %d byte(s) dropped; want at least one detected tear", rep.TearsInjected, rep.DroppedBytes)
	}
}
