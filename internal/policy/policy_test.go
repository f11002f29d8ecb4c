package policy

import (
	"cmp"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

func TestSetNormalizeValidateDefault(t *testing.T) {
	var zero Set
	if !zero.IsDefault() {
		t.Fatal("zero Set is not the default selection")
	}
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero Set invalid: %v", err)
	}
	n := zero.Normalized()
	want := Set{Evict: EvictWearLRU, Admit: AdmitPaper, GC: GCGreedy}
	if n != want {
		t.Fatalf("normalized %+v, want %+v", n, want)
	}
	if got := n.String(); got != "evict=wear-lru admit=paper gc=greedy" {
		t.Fatalf("String() = %q", got)
	}
	explicit := Set{Evict: EvictWearLRU, Admit: AdmitPaper, GC: GCGreedy}
	if !explicit.IsDefault() {
		t.Fatal("explicitly-default Set not recognised as default")
	}
	zoo := Set{Admit: AdmitWLFC}
	if zoo.IsDefault() {
		t.Fatal("wlfc admission counted as default")
	}
	if err := zoo.Validate(); err != nil {
		t.Fatalf("wlfc admission invalid: %v", err)
	}
}

func TestSetValidateRejectsUnknown(t *testing.T) {
	for _, s := range []Set{
		{Evict: "mru"},
		{Admit: "always"},
		{GC: "random"},
	} {
		if err := s.Validate(); err == nil {
			t.Fatalf("%+v validated", s)
		}
	}
}

func TestRegistryCatalog(t *testing.T) {
	for _, kind := range Kinds() {
		names := Names(kind)
		if len(names) < 2 {
			t.Fatalf("kind %s has %d implementations, want a zoo", kind, len(names))
		}
		if names[0] != DefaultName(kind) {
			t.Fatalf("kind %s: first name %q is not the default %q", kind, names[0], DefaultName(kind))
		}
		for _, n := range names {
			s := Set{}
			switch kind {
			case KindEvict:
				s.Evict = n
			case KindAdmit:
				s.Admit = n
			case KindGC:
				s.GC = n
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("registered name %s/%s fails validation: %v", kind, n, err)
			}
		}
	}
	if Names("dram") != nil {
		t.Fatal("unknown kind returned names")
	}
}

func TestAdmitFilterSecondTouch(t *testing.T) {
	f := NewAdmitFilter()
	if f.Hot(7) {
		t.Fatal("untouched lba hot")
	}
	f.Touch(7)
	if f.Hot(7) {
		t.Fatal("single touch admitted")
	}
	f.Touch(7)
	if !f.Hot(7) {
		t.Fatal("second touch not admitted")
	}
	// Saturation: more touches keep it hot and keep the count capped.
	f.Touch(7)
	if ck := f.Checkpoint(); !f.Hot(7) || !reflect.DeepEqual(ck, []AdmitEntry{{7, 2}}) {
		t.Fatalf("touch count not capped: %v", ck)
	}
}

func TestAdmitFilterCheckpointCanonical(t *testing.T) {
	f := NewAdmitFilter()
	for _, lba := range []int64{42, 3, 99, 3, 42, 17} {
		f.Touch(lba)
	}
	ck := f.Checkpoint()
	want := []AdmitEntry{{3, 2}, {17, 1}, {42, 2}, {99, 1}}
	if !reflect.DeepEqual(ck, want) {
		t.Fatalf("checkpoint %v, want %v", ck, want)
	}
	g := NewAdmitFilter()
	if err := g.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Checkpoint(), ck) {
		t.Fatal("restore/checkpoint not a fixed point")
	}
	if !g.Hot(3) || g.Hot(17) {
		t.Fatal("restored filter disagrees with original")
	}
}

func TestAdmitFilterRestoreRejectsBadEntries(t *testing.T) {
	f := NewAdmitFilter()
	if err := f.Restore([]AdmitEntry{{1, 0}}); err == nil {
		t.Fatal("count 0 accepted")
	}
	if err := f.Restore([]AdmitEntry{{1, 3}}); err == nil {
		t.Fatal("count above threshold accepted")
	}
	if err := f.Restore([]AdmitEntry{{1, 1}, {1, 2}}); err == nil {
		t.Fatal("duplicate lba accepted")
	}
}

// refFilter is the map[int64]uint8 filter the dense pages replaced:
// the reference the lockstep tests hold AdmitFilter to.
type refFilter map[int64]uint8

func (r refFilter) touch(lba int64) {
	if r[lba] < admitThreshold {
		r[lba]++
	}
}

func (r refFilter) checkpoint() []AdmitEntry {
	out := make([]AdmitEntry, 0, len(r))
	for lba, n := range r {
		out = append(out, AdmitEntry{LBA: lba, Count: n})
	}
	slices.SortFunc(out, func(a, b AdmitEntry) int { return cmp.Compare(a.LBA, b.LBA) })
	return out
}

// lockstepLBAs are the bases a lockstep op's LBA is drawn from: both
// int64 extremes, zero, and the edges of pages near zero, far out and
// negative. An op adds a small signed offset, which wraps at the
// extremes exactly as int64 arithmetic does.
var lockstepLBAs = []int64{
	0, filterPageSize - 1, filterPageSize, 3*filterPageSize - 1,
	-1, -filterPageSize, -filterPageSize - 1,
	1 << 40, -(1 << 40) + filterPageMask,
	math.MinInt64, math.MaxInt64,
}

// runAdmitLockstep decodes ops three bytes at a time — op, base LBA,
// signed offset — and applies each to an AdmitFilter and to the map
// reference, failing at the first answer or checkpoint they disagree
// on. Op 0 and 1 touch, op 2 asks Hot, op 3 checkpoints and replaces
// the filter by a restored copy, and op 4 feeds Restore a checkpoint
// with one bad entry appended, which must change nothing.
func runAdmitLockstep(t *testing.T, ops []byte) {
	f, ref := NewAdmitFilter(), refFilter{}
	for i := 0; i+2 < len(ops); i += 3 {
		lba := lockstepLBAs[int(ops[i+1])%len(lockstepLBAs)] + int64(int8(ops[i+2]))
		switch ops[i] % 5 {
		case 0, 1:
			f.Touch(lba)
			ref.touch(lba)
		case 2:
			if got, want := f.Hot(lba), ref[lba] >= admitThreshold; got != want {
				t.Fatalf("op %d: Hot(%d) = %v, reference %v", i/3, lba, got, want)
			}
		case 3:
			ck := f.Checkpoint()
			if want := ref.checkpoint(); !reflect.DeepEqual(ck, want) {
				t.Fatalf("op %d: checkpoint %v, reference %v", i/3, ck, want)
			}
			g := NewAdmitFilter()
			if err := g.Restore(ck); err != nil {
				t.Fatalf("op %d: restoring its own checkpoint: %v", i/3, err)
			}
			if got := g.Checkpoint(); !reflect.DeepEqual(got, ck) {
				t.Fatalf("op %d: restore/checkpoint not a fixed point: %v, want %v", i/3, got, ck)
			}
			f = g
		case 4:
			bad := []AdmitEntry{{lba, 0}, {lba, admitThreshold + 1}, {lba, 1}}[int(ops[i+2])%3]
			ck := f.Checkpoint()
			entries := append(slices.Clone(ck), bad)
			if bad.Count == 1 {
				entries = append(entries, bad) // listed twice: a duplicate
			}
			if err := f.Restore(entries); err == nil {
				t.Fatalf("op %d: Restore accepted bad entry %+v", i/3, bad)
			}
			if got := f.Checkpoint(); !reflect.DeepEqual(got, ck) {
				t.Fatalf("op %d: rejected Restore changed the filter", i/3)
			}
		}
	}
	if ck, want := f.Checkpoint(), ref.checkpoint(); !reflect.DeepEqual(ck, want) {
		t.Fatalf("final checkpoint %v, reference %v", ck, want)
	}
}

func FuzzAdmitFilterLockstep(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 9, 0, 1, 9, 0, 0, 10, 0, 2, 9, 0, 2, 10, 0, 3, 0, 0, 4, 9, 1})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 1, 1, 1, 2, 255, 3, 0, 0, 4, 1, 2, 2, 2, 255})
	f.Fuzz(runAdmitLockstep)
}

// TestAdmitFilterLockstep runs a long seeded stream through the
// lockstep: dense runs across page edges, sparse far-apart LBAs,
// negatives and both int64 extremes.
func TestAdmitFilterLockstep(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	ops := make([]byte, 3*50000)
	for i := 0; i < len(ops); i += 3 {
		ops[i] = byte(rng.IntN(5))
		if rng.IntN(500) != 0 {
			ops[i] %= 3 // keep checkpoints rare enough to cover a big state
		}
		ops[i+1] = byte(rng.IntN(len(lockstepLBAs)))
		ops[i+2] = byte(rng.IntN(256))
	}
	runAdmitLockstep(t, ops)
}
