package nand

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"flashdc/internal/wear"
)

// TestWearMemoMatchesForward pins every slot's cached wear count to the
// forward model at every erase count of a trajectory that runs past
// the first few bit rises, across a mode flip, and back through a
// restore to an earlier checkpoint whose slots are in the other mode.
// The last trajectory per mode runs at an acceleration where the
// inverse model overestimates a change point by one erase count.
func TestWearMemoMatchesForward(t *testing.T) {
	for _, mode := range []wear.Mode{wear.SLC, wear.MLC} {
		// 150 and 20000 are the accelerations of fig11 and fig12.
		for _, acc := range []float64{1, 7, 64, 150, 20000} {
			t.Run(fmt.Sprintf("%v/accel=%g", mode, acc), func(t *testing.T) {
				checkWearTrajectory(t, mode, acc, 0)
			})
		}
		t.Run(fmt.Sprintf("%v/accel=overshoot", mode), func(t *testing.T) {
			checkWearTrajectory(t, mode, overshootAcceleration(t, mode), overshootAt)
		})
	}
}

// overshootAt is the erase count whose change point
// overshootAcceleration makes the inverse model overestimate.
const overshootAt = 16

// overshootAcceleration returns a wear acceleration at which, for some
// slot of the test device, erase count overshootAt already shows more
// than bits failed cells while the inverse model's estimate of that
// change point still lies above it. CyclesUntilBits is exact only to a
// few ulps, so such an acceleration exists; rewear must step down.
func overshootAcceleration(t *testing.T, mode wear.Mode) float64 {
	t.Helper()
	const n = overshootAt
	d := New(Config{Blocks: 1, InitialMode: mode, SigmaSpatial: 0.2, Seed: 3})
	for s := range d.slots {
		w := &d.slots[s].wear
		f := func(cycles float64) int { return w.FailedBits(d.model, cycles, mode) }
		for bits := 1; bits <= 4; bits++ {
			est := w.CyclesUntilBits(d.model, bits, mode)
			acc := est / n
			for k := 0; k < 8; k++ {
				acc = math.Nextafter(acc, 0)
				if math.Ceil(est/acc) > n && f(n*acc) > bits && f((n-1)*acc) == bits {
					return acc
				}
			}
		}
	}
	t.Fatal("no slot's inverse overestimates a change point")
	return 0
}

// checkWearTrajectory walks a one-block device, checking every erase
// count: past the first few bit rises (and at least to erase count
// past) in mode, then in the other mode, then again from a restored
// checkpoint taken at the first rise.
func checkWearTrajectory(t *testing.T, mode wear.Mode, acc float64, past int) {
	d := New(Config{Blocks: 1, InitialMode: mode, SigmaSpatial: 0.2, Seed: 3, WearAcceleration: acc})
	slots := d.blockSlots(0)
	// check compares every slot of the block against FailedBits and
	// returns the largest forward count. Both pages of an MLC slot
	// share the slot's cached count, so page 0 stands for the slot.
	check := func(stage string) int {
		t.Helper()
		e := d.EraseCount(0)
		most := 0
		for s := range slots {
			sl := &slots[s]
			want := sl.wear.FailedBits(d.model, float64(e)*acc, sl.mode)
			most = max(most, want)
			a := PageAddr(0, s, 0)
			if got := d.WearBitErrors(a); got != want {
				t.Fatalf("%s: %v at erase count %d in %v: WearBitErrors %d, FailedBits %d", stage, a, e, sl.mode, got, want)
			}
			if got := d.BitErrors(a); got != want {
				t.Fatalf("%s: %v at erase count %d in %v: BitErrors %d, FailedBits %d", stage, a, e, sl.mode, got, want)
			}
		}
		return most
	}
	// walk erases the block one cycle at a time, checking at every
	// erase count, until some page shows at least bits failed cells
	// and the erase count has reached past.
	walk := func(stage string, bits int) {
		t.Helper()
		for check(stage) < bits || d.EraseCount(0) < past {
			if _, err := d.Erase(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk("first rise", 1)
	ck := d.Checkpoint()
	walk("initial mode", 3)

	other := wear.SLC
	if mode == wear.SLC {
		other = wear.MLC
	}
	for s := range slots {
		if err := d.SetMode(0, s, other); err != nil {
			t.Fatal(err)
		}
	}
	walk("after SetMode", check("at SetMode")+2)

	if err := d.Restore(ck); err != nil {
		t.Fatal(err)
	}
	walk("after Restore", check("at Restore")+1)
}

// TestSlotStateIs56Bytes guards the per-slot footprint: the device
// holds 64 slots per block, so every byte here is 64 bytes per block
// of live heap.
func TestSlotStateIs56Bytes(t *testing.T) {
	if got := unsafe.Sizeof(slotState{}); got != 56 {
		t.Fatalf("slotState is %d bytes, want 56", got)
	}
}

func TestNewPanicsOnDegenerateWearAcceleration(t *testing.T) {
	for _, acc := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(acc), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("New with WearAcceleration %v did not panic", acc)
				}
			}()
			New(Config{Blocks: 1, WearAcceleration: acc})
		})
	}
}
