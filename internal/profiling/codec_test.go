package profiling

import (
	"bytes"
	"reflect"
	"testing"

	"peak/internal/bench"
	"peak/internal/machine"
	"peak/internal/store"
	"peak/internal/workloads"
)

// TestProfileCodecRoundTrip decodes the encoding of every workload's
// profile on both machines and both datasets back into a profile equal
// to the one Run built, and re-encodes it to the same bytes.
func TestProfileCodecRoundTrip(t *testing.T) {
	for _, b := range workloads.All() {
		for _, m := range []*machine.Machine{machine.SPARCII(), machine.PentiumIV()} {
			for _, ds := range []*bench.Dataset{b.Train, b.Ref} {
				b, m, ds := b, m, ds
				t.Run(b.Name+"/"+m.Name+"/"+ds.Name, func(t *testing.T) {
					t.Parallel()
					p, err := Run(b, ds, m)
					if err != nil {
						t.Fatal(err)
					}
					enc, err := p.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					var got Profile
					if err := got.UnmarshalBinary(enc); err != nil {
						t.Fatalf("decode: %v", err)
					}
					if !reflect.DeepEqual(&got, p) {
						t.Fatalf("decoded profile differs from the profile run")
					}
					again, _ := got.MarshalBinary()
					if !bytes.Equal(again, enc) {
						t.Fatalf("decoded profile re-encodes differently")
					}
				})
			}
		}
	}
}

// TestProfileMemoReadThrough stores a profile through the profile memo
// kind, reopens the store and reads it back without running compute.
func TestProfileMemoReadThrough(t *testing.T) {
	b := twoContextBenchmark()
	m := machine.SPARCII()
	key := b.Name + "/" + b.Train.Name + "/" + m.Name
	dir := t.TempDir()
	runs := 0
	run := func() (Profile, error) {
		runs++
		p, err := Run(b, b.Train, m)
		if err != nil {
			return Profile{}, err
		}
		return *p, nil
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, hit, err := store.Memo(st, MemoKind, key, run)
	if err != nil || hit || runs != 1 {
		t.Fatalf("cold lookup: hit=%t runs=%d err=%v, want a miss that runs once", hit, runs, err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(dir); err != nil {
		t.Fatal(err)
	}
	warm, hit, err := store.Memo(st, MemoKind, key, run)
	if err != nil || !hit || runs != 1 {
		t.Fatalf("warm lookup: hit=%t runs=%d err=%v, want a hit that does not run", hit, runs, err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("stored profile differs from the profile run")
	}
}

// FuzzProfileCodec decodes arbitrary bytes as a profile. The decoder must
// never panic, and every input it accepts must re-encode to exactly those
// bytes, so the store holds one encoding per profile.
func FuzzProfileCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Profile
		if p.UnmarshalBinary(data) != nil {
			return
		}
		got, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("accepted profile re-encodes differently")
		}
	})
}
