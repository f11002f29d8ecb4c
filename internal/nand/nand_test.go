package nand

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"strings"
	"testing"
	"testing/quick"

	"flashdc/internal/ecc"
	"flashdc/internal/sim"
	"flashdc/internal/wear"
)

func testDevice(blocks int, mode wear.Mode) *Device {
	return New(Config{Blocks: blocks, InitialMode: mode, Seed: 1})
}

func TestNewPanicsWithoutBlocks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 blocks did not panic")
		}
	}()
	New(Config{})
}

// TestNewPanicsBeyondMaxBlocks: a device of more blocks than an Addr
// can name panics before it allocates any slot state.
func TestNewPanicsBeyondMaxBlocks(t *testing.T) {
	defer func() {
		if r, ok := recover().(string); !ok || !strings.Contains(r, "an address can name") {
			t.Fatalf("New with MaxBlocks+1 blocks recovered %v, want the address-limit panic", r)
		}
	}()
	New(Config{Blocks: MaxBlocks + 1})
}

func TestDefaultTimingMatchesTable3(t *testing.T) {
	tm := DefaultTiming()
	if tm.ReadSLC != 25*sim.Microsecond || tm.ReadMLC != 50*sim.Microsecond {
		t.Fatal("read latencies do not match Table 3")
	}
	if tm.WriteSLC != 200*sim.Microsecond || tm.WriteMLC != 680*sim.Microsecond {
		t.Fatal("write latencies do not match Table 3")
	}
	if tm.EraseSLC != 1500*sim.Microsecond || tm.EraseMLC != 3300*sim.Microsecond {
		t.Fatal("erase latencies do not match Table 3")
	}
}

func TestBlocksForCapacity(t *testing.T) {
	// One block stores 64*2KB = 128KB in SLC, 256KB in MLC.
	if got := BlocksForCapacity(128<<10, wear.SLC); got != 1 {
		t.Fatalf("SLC 128KB = %d blocks, want 1", got)
	}
	if got := BlocksForCapacity(1<<30, wear.MLC); got != 4096 {
		t.Fatalf("MLC 1GB = %d blocks, want 4096", got)
	}
	if got := BlocksForCapacity(1, wear.SLC); got != 1 {
		t.Fatalf("1 byte = %d blocks, want 1 (round up)", got)
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	d := testDevice(2, wear.SLC)
	a := PageAddr(1, 3, 0)
	lat, err := d.Program(a, 0xDEADBEEF)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 200*sim.Microsecond {
		t.Fatalf("SLC program latency %v", lat)
	}
	res, err := d.Read(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != 0xDEADBEEF {
		t.Fatalf("read back %x", res.Data)
	}
	if res.Latency != 25*sim.Microsecond {
		t.Fatalf("SLC read latency %v", res.Latency)
	}
	if res.BitErrors != 0 {
		t.Fatalf("fresh page has %d bit errors", res.BitErrors)
	}
}

func TestWriteAfterEraseRule(t *testing.T) {
	d := testDevice(1, wear.SLC)
	a := PageAddr(0, 0, 0)
	if _, err := d.Program(a, 1); err != nil {
		t.Fatal(err)
	}
	// Second program without erase must fail: out-of-place writes
	// exist precisely because of this rule.
	if _, err := d.Program(a, 2); !errors.Is(err, ErrNotErased) {
		t.Fatalf("double program: %v", err)
	}
	if _, err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(a, 2); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestReadUnprogrammedFails(t *testing.T) {
	d := testDevice(1, wear.SLC)
	if _, err := d.Read(PageAddr(0, 5, 0)); !errors.Is(err, ErrNotProgrammed) {
		t.Fatalf("got %v", err)
	}
}

func TestEraseResetsAndCounts(t *testing.T) {
	d := testDevice(1, wear.SLC)
	for s := 0; s < SlotsPerBlock; s++ {
		if _, err := d.Program(PageAddr(0, s, 0), uint64(s)); err != nil {
			t.Fatal(err)
		}
	}
	lat, err := d.Erase(0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 1500*sim.Microsecond {
		t.Fatalf("SLC erase latency %v", lat)
	}
	if d.EraseCount(0) != 1 {
		t.Fatalf("erase count %d", d.EraseCount(0))
	}
	for s := 0; s < SlotsPerBlock; s++ {
		if d.Programmed(PageAddr(0, s, 0)) {
			t.Fatalf("slot %d still programmed after erase", s)
		}
	}
}

func TestMLCSubPages(t *testing.T) {
	d := testDevice(1, wear.MLC)
	a0 := PageAddr(0, 0, 0)
	a1 := PageAddr(0, 0, 1)
	if _, err := d.Program(a0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(a1, 11); err != nil {
		t.Fatal(err)
	}
	r0, _ := d.Read(a0)
	r1, _ := d.Read(a1)
	if r0.Data != 10 || r1.Data != 11 {
		t.Fatal("MLC sub-pages collide")
	}
	if r0.Latency != 50*sim.Microsecond {
		t.Fatalf("MLC read latency %v", r0.Latency)
	}
	// Sub=1 is invalid in SLC mode.
	s := testDevice(1, wear.SLC)
	if _, err := s.Program(PageAddr(0, 0, 1), 1); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("SLC sub 1: %v", err)
	}
}

func TestSetModeRules(t *testing.T) {
	d := testDevice(1, wear.MLC)
	if err := d.SetMode(0, 0, wear.SLC); err != nil {
		t.Fatal(err)
	}
	if d.Mode(PageAddr(0, 0, 0)) != wear.SLC {
		t.Fatal("mode did not change")
	}
	if _, err := d.Program(PageAddr(0, 1, 0), 7); err != nil {
		t.Fatal(err)
	}
	if err := d.SetMode(0, 1, wear.SLC); !errors.Is(err, ErrModeWhileInUse) {
		t.Fatalf("mode change on programmed slot: %v", err)
	}
	if _, err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	if err := d.SetMode(0, 1, wear.SLC); err != nil {
		t.Fatalf("mode change after erase: %v", err)
	}
}

func TestPagesPerBlockAndCapacity(t *testing.T) {
	d := testDevice(2, wear.MLC)
	if got := d.PagesPerBlock(0); got != 128 {
		t.Fatalf("all-MLC block pages = %d, want 128", got)
	}
	for s := 0; s < 10; s++ {
		if err := d.SetMode(0, s, wear.SLC); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.PagesPerBlock(0); got != 118 {
		t.Fatalf("mixed block pages = %d, want 118", got)
	}
	wantBytes := int64(118+128) * PageSize
	if got := d.CapacityBytes(); got != wantBytes {
		t.Fatalf("capacity %d, want %d", got, wantBytes)
	}
	d.Retire(1)
	if got := d.CapacityBytes(); got != 118*PageSize {
		t.Fatalf("capacity after retire %d", got)
	}
}

// walkPages recounts block b's pages and the device capacity from the
// slot modes, the way the counts were derived before the device kept
// them.
func walkPages(d *Device, b int) (block int, capacity int64) {
	for bb := range d.blocks {
		n := 0
		for _, sl := range d.blockSlots(bb) {
			if sl.mode == wear.MLC {
				n += 2
			} else {
				n++
			}
		}
		if bb == b {
			block = n
		}
		if !d.blocks[bb].retired {
			capacity += int64(n) * PageSize
		}
	}
	return block, capacity
}

func TestPageCountsTrackSlotModes(t *testing.T) {
	rng := sim.NewRNG(5)
	d := New(Config{Blocks: 6, InitialMode: wear.MLC, Seed: 1, FactoryBadBlocks: []int{4}})
	var ck DeviceCheckpoint
	for step := 0; step < 5000; step++ {
		b := rng.Intn(d.Blocks())
		switch op := rng.Intn(100); {
		case op < 70:
			m := wear.SLC
			if rng.Bool(0.5) {
				m = wear.MLC
			}
			// Programmed slots refuse the change; the count must not move.
			_ = d.SetMode(b, rng.Intn(SlotsPerBlock), m)
		case op < 85:
			a := PageAddr(b, rng.Intn(SlotsPerBlock), 0)
			if !d.Retired(b) && !d.Programmed(a) {
				if _, err := d.Program(a, 1); err != nil {
					t.Fatal(err)
				}
			}
		case op < 95:
			if !d.Retired(b) {
				if _, err := d.Erase(b); err != nil {
					t.Fatal(err)
				}
			}
		case op < 97:
			d.Retire(b)
		case op < 99:
			ck = d.Checkpoint()
		default:
			if ck.Blocks != nil {
				if err := d.Restore(ck); err != nil {
					t.Fatal(err)
				}
			}
		}
		wantBlock, wantCap := walkPages(d, b)
		if got := d.PagesPerBlock(b); got != wantBlock {
			t.Fatalf("step %d: block %d counts %d pages, slots hold %d", step, b, got, wantBlock)
		}
		if got := d.CapacityBytes(); got != wantCap {
			t.Fatalf("step %d: capacity %d, slots hold %d", step, got, wantCap)
		}
	}
}

func TestEraseLatencyFollowsMLCSlots(t *testing.T) {
	d := testDevice(1, wear.MLC)
	for s := 0; s < SlotsPerBlock-1; s++ {
		if err := d.SetMode(0, s, wear.SLC); err != nil {
			t.Fatal(err)
		}
	}
	// One MLC slot left makes the whole block erase at MLC speed.
	if lat, err := d.Erase(0); err != nil || lat != d.timing.EraseMLC {
		t.Fatalf("erase with one MLC slot: %v, %v", lat, err)
	}
	if err := d.SetMode(0, SlotsPerBlock-1, wear.SLC); err != nil {
		t.Fatal(err)
	}
	if lat, err := d.Erase(0); err != nil || lat != d.timing.EraseSLC {
		t.Fatalf("all-SLC erase: %v, %v", lat, err)
	}
}

func TestRetiredBlockRejectsOps(t *testing.T) {
	d := testDevice(1, wear.SLC)
	d.Retire(0)
	if !d.Retired(0) {
		t.Fatal("Retired not set")
	}
	if _, err := d.Program(PageAddr(0, 0, 0), 1); !errors.Is(err, ErrRetired) {
		t.Fatalf("program on retired: %v", err)
	}
	if _, err := d.Erase(0); !errors.Is(err, ErrRetired) {
		t.Fatalf("erase on retired: %v", err)
	}
	if _, err := d.Read(PageAddr(0, 0, 0)); !errors.Is(err, ErrRetired) {
		t.Fatalf("read on retired: %v", err)
	}
}

func TestWearAccumulatesBitErrors(t *testing.T) {
	d := testDevice(1, wear.MLC)
	a := PageAddr(0, 0, 0)
	// Simulate heavy cycling without the O(n) erase loop: hammer
	// erase/program.
	var last int
	for i := 0; i < 60; i++ {
		for j := 0; j < 500; j++ {
			if _, err := d.Erase(0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Program(a, 1); err != nil {
			t.Fatal(err)
		}
		res, err := d.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		if res.BitErrors < last {
			t.Fatal("bit errors decreased with wear")
		}
		last = res.BitErrors
	}
	if last == 0 {
		t.Fatalf("no bit errors after %d cycles in MLC mode", d.EraseCount(0))
	}
	if d.BitErrors(a) != last {
		t.Fatal("BitErrors disagrees with Read")
	}
}

func TestStatsAccounting(t *testing.T) {
	d := testDevice(1, wear.SLC)
	d.Program(PageAddr(0, 0, 0), 1)
	d.Read(PageAddr(0, 0, 0))
	d.Read(PageAddr(0, 0, 0))
	d.Erase(0)
	st := d.Stats()
	if st.Programs != 1 || st.Reads != 2 || st.Erases != 1 {
		t.Fatalf("counters %+v", st)
	}
	want := 200*sim.Microsecond + 2*25*sim.Microsecond + 1500*sim.Microsecond
	if st.BusyTime() != want {
		t.Fatalf("busy time %v, want %v", st.BusyTime(), want)
	}
}

// TestBadAddresses: a negative address, the page one past the last
// slot, and sub-page 1 of an SLC slot are all out of range.
func TestBadAddresses(t *testing.T) {
	d := testDevice(1, wear.SLC)
	for _, a := range []Addr{-1, PageAddr(-1, 0, 0), PageAddr(1, 0, 0), PageAddr(0, 0, 1)} {
		if _, err := d.Read(a); !errors.Is(err, ErrBadAddress) {
			t.Fatalf("Read(%v): %v", a, err)
		}
		if _, err := d.Program(a, 1); !errors.Is(err, ErrBadAddress) {
			t.Fatalf("Program(%v): %v", a, err)
		}
	}
	if _, err := d.Erase(3); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("Erase(3): %v", err)
	}
}

func TestAddrString(t *testing.T) {
	if got := PageAddr(2, 7, 1).String(); got != "b2/s7.1" {
		t.Fatalf("Addr.String() = %q", got)
	}
}

// TestAddrRoundTrip: every page of the first and the last block an
// Addr can name comes back from its accessors as built, and its slot
// index is the slot's place in a block-by-block table.
func TestAddrRoundTrip(t *testing.T) {
	for _, b := range []int{0, MaxBlocks - 1} {
		for s := 0; s < SlotsPerBlock; s++ {
			for sub := 0; sub < 2; sub++ {
				a := PageAddr(b, s, sub)
				if a < 0 || a.Block() != b || a.Slot() != s || a.Sub() != sub || a.SlotIndex() != b*SlotsPerBlock+s {
					t.Fatalf("PageAddr(%d, %d, %d) = %d reads back as %v, slot index %d", b, s, sub, int32(a), a, a.SlotIndex())
				}
			}
		}
	}
}

func TestProgramReadPropertyTokenPreserved(t *testing.T) {
	d := testDevice(4, wear.MLC)
	f := func(block, slot, sub uint8, token uint64) bool {
		a := PageAddr(int(block)%4, int(slot)%SlotsPerBlock, int(sub)%2)
		if d.Programmed(a) {
			return true // skip occupied
		}
		if _, err := d.Program(a, token); err != nil {
			return false
		}
		res, err := d.Read(a)
		return err == nil && res.Data == token
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDieAreaModel(t *testing.T) {
	m := DefaultDieAreaModel()
	// 1GiB all-MLC is the [12] reference: 146 mm^2.
	if got := m.Area(0, 1<<30); math.Abs(got-146) > 1e-9 {
		t.Fatalf("1GiB MLC area = %v, want 146", got)
	}
	// SLC bytes cost twice the area.
	if got := m.Area(1<<30, 0); math.Abs(got-292) > 1e-9 {
		t.Fatalf("1GiB SLC area = %v, want 292", got)
	}
	// CapacityForArea inverts: all-MLC die of 146mm^2 holds 1GiB.
	if got := m.CapacityForArea(146, 0); math.Abs(got-float64(1<<30)) > 1 {
		t.Fatalf("capacity = %v", got)
	}
	// Full SLC halves capacity.
	if got := m.CapacityForArea(146, 1); math.Abs(got-float64(1<<29)) > 1 {
		t.Fatalf("SLC capacity = %v", got)
	}
}

func TestDieAreaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad SLC fraction did not panic")
		}
	}()
	DefaultDieAreaModel().CapacityForArea(100, 1.5)
}

// TestWearCorruptsExactlyBitErrors: a worn page reports the same
// BitErrors on every read until its block is erased ("fail
// consistently due to wear out", §5.2.1), so flipping that many bits
// of a page image, seeded from the address and erase count, corrupts
// it the same way on every read and in exactly BitErrors bits.
func TestWearCorruptsExactlyBitErrors(t *testing.T) {
	d := New(Config{Blocks: 1, InitialMode: wear.MLC, Seed: 3, WearAcceleration: 5000})
	for i := 0; i < 40; i++ {
		if _, err := d.Erase(0); err != nil {
			t.Fatal(err)
		}
	}
	a := PageAddr(0, 0, 0)
	if _, err := d.Program(a, 9); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, PageSize)
	spare := []byte{0xAA}
	read := func() ([]byte, []byte, int) {
		t.Helper()
		res, err := d.Read(a)
		if err != nil {
			t.Fatal(err)
		}
		if res.Data != 9 {
			t.Fatalf("token %d, want 9", res.Data)
		}
		dc, sc := bytes.Clone(data), bytes.Clone(spare)
		rng := sim.NewRNG(3 ^ uint64(a.Block())<<40 ^ uint64(a.Slot())<<24 ^ uint64(a.Sub())<<16 ^ uint64(d.EraseCount(0)))
		ecc.FlipBits(rng, res.BitErrors, dc, sc)
		return dc, sc, res.BitErrors
	}
	d1, s1, n := read()
	if n == 0 {
		t.Fatal("40 erases at acceleration 5000 left the page without bit errors")
	}
	flipped := 0
	for i := range d1 {
		flipped += bits.OnesCount8(d1[i] ^ data[i])
	}
	flipped += bits.OnesCount8(s1[0] ^ spare[0])
	if flipped != n {
		t.Fatalf("flipped %d bits, device reported %d", flipped, n)
	}
	d2, s2, n2 := read()
	if n2 != n || !bytes.Equal(d1, d2) || !bytes.Equal(s1, s2) {
		t.Fatalf("wear corruption not deterministic across reads: %d then %d bit errors", n, n2)
	}
}
