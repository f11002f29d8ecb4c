package engine

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"flashdc/internal/core"
	"flashdc/internal/envelope"
	"flashdc/internal/fault"
	"flashdc/internal/hier"
	"flashdc/internal/sim"
	"flashdc/internal/trace"
	"flashdc/internal/wear"
)

// campaignHier is a hierarchy configuration that stresses every
// checkpointed subsystem: fault RNG streams, the scrub tick, retention
// dwell stamps and disturb counters.
func campaignHier(seed uint64) hier.Config {
	fc := core.DefaultConfig(16 << 20)
	fc.ScrubEvery = 256
	fc.Retention = wear.RetentionParams{Accel: 1e8}
	fc.Disturb = wear.DisturbParams{ReadsPerBit: 100}
	fc.RefreshThreshold = 0.75
	fc.Faults = &fault.Plan{
		Seed:         19,
		ReadFlipRate: 0.01,
		ReadFlipMax:  3,
		GrownBadRate: 0.2,
	}
	return hier.Config{
		DRAMBytes:  128 << 10,
		FlashBytes: 16 << 20,
		Seed:       seed,
		Flash:      fc,
	}
}

// campaignReqs generates a deterministic request sequence.
func campaignReqs(seed uint64, n int) []trace.Request {
	rng := sim.NewRNG(seed)
	reqs := make([]trace.Request, n)
	for i := range reqs {
		req := trace.Request{Op: trace.OpRead, Pages: 1}
		if rng.Bool(0.3) {
			req.Op = trace.OpWrite
		}
		if rng.Bool(0.1) {
			req.Pages = 1 + rng.Intn(4)
		}
		req.LBA = int64(rng.Uint64n(4096))
		reqs[i] = req
	}
	return reqs
}

func feed(e *Engine, reqs []trace.Request) {
	e.RunBatch(reqs)
}

func checkpointBytes(t *testing.T, e *Engine, fingerprint string, consumed int64) []byte {
	t.Helper()
	ck, err := e.Checkpoint(fingerprint, consumed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineCheckpointSegmentedBitIdentical is the campaign guarantee:
// running N requests in one unbroken run, versus N/2 + checkpoint +
// restore into a fresh engine + N/2, produces byte-identical
// checkpoints and identical merged statistics.
func TestEngineCheckpointSegmentedBitIdentical(t *testing.T) {
	const shards, n = 2, 12000
	hc := campaignHier(5)
	reqs := campaignReqs(77, n)

	// Unbroken run.
	full, err := New(Config{Shards: shards, Hier: hc})
	if err != nil {
		t.Fatal(err)
	}
	feed(full, reqs)
	fullCk := checkpointBytes(t, full, "fp", int64(n))

	// Segmented: first half, checkpoint through the wire format,
	// restore into a fresh engine, second half.
	seg, err := New(Config{Shards: shards, Hier: hc})
	if err != nil {
		t.Fatal(err)
	}
	feed(seg, reqs[:n/2])
	wire := checkpointBytes(t, seg, "fp", int64(n/2))

	ck, err := ReadCheckpoint(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Fingerprint != "fp" || ck.Consumed != int64(n/2) || ck.Shards != shards {
		t.Fatalf("checkpoint header round-trip: %+v", ck)
	}
	resumed, err := New(Config{Shards: shards, Hier: hc})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(ck); err != nil {
		t.Fatal(err)
	}
	feed(resumed, reqs[n/2:])
	resumedCk := checkpointBytes(t, resumed, "fp", int64(n))

	if !bytes.Equal(fullCk, resumedCk) {
		t.Fatalf("final checkpoints differ: %d vs %d bytes", len(fullCk), len(resumedCk))
	}

	full.Drain()
	resumed.Drain()
	if !reflect.DeepEqual(resumed.Stats(), full.Stats()) {
		t.Fatalf("merged stats diverge:\n got %+v\nwant %+v", resumed.Stats(), full.Stats())
	}
	if !reflect.DeepEqual(resumed.FlashStats(), full.FlashStats()) {
		t.Fatalf("merged flash stats diverge:\n got %+v\nwant %+v", resumed.FlashStats(), full.FlashStats())
	}
	if !reflect.DeepEqual(resumed.DeviceStats(), full.DeviceStats()) {
		t.Fatal("merged device stats diverge")
	}
	if !reflect.DeepEqual(resumed.FaultStats(), full.FaultStats()) {
		t.Fatal("merged fault stats diverge (injector RNG not restored)")
	}
	if !reflect.DeepEqual(resumed.Latencies(), full.Latencies()) {
		t.Fatal("merged latency histograms diverge")
	}
	if err := resumed.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRestoreRejectsMismatch: a checkpoint only restores into an
// engine of the same shard width, and a corrupted stream is refused
// with ErrCorruptCheckpoint.
func TestEngineRestoreRejectsMismatch(t *testing.T) {
	hc := campaignHier(6)
	e, err := New(Config{Shards: 2, Hier: hc})
	if err != nil {
		t.Fatal(err)
	}
	feed(e, campaignReqs(3, 500))
	ck, err := e.Checkpoint("fp", 500)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := New(Config{Shards: 4, Hier: hc})
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.Restore(ck); err == nil {
		t.Fatal("4-shard engine restored a 2-shard checkpoint")
	}

	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	flipped := append([]byte(nil), wire...)
	flipped[len(flipped)-1] ^= 0xFF // flip a CRC bit
	var v1 bytes.Buffer
	if err := envelope.Write(&v1, checkpointMagic, 1, ck); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"corrupted", flipped},
		{"truncated", wire[:8]},
		{"format v1", v1.Bytes()},
	} {
		if _, err := ReadCheckpoint(bytes.NewReader(tc.wire)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("%s checkpoint read reported %v, want ErrCorruptCheckpoint", tc.name, err)
		}
	}
}

// TestEngineRestoreRejectsOutOfRange mutates one cursor, page, block
// or device field of a real 1-shard checkpoint at a time. Restore must
// refuse each value no cache can hold, rather than accept it and let
// the next replay index out of range or report a state the cache
// cannot be in.
func TestEngineRestoreRejectsOutOfRange(t *testing.T) {
	const badBlock = 5 // factory-bad, so the checkpoint holds a retired block
	hc := campaignHier(8)
	hc.Flash.Faults.FactoryBadBlocks = []int{badBlock}
	src, err := New(Config{Shards: 1, Hier: hc})
	if err != nil {
		t.Fatal(err)
	}
	feed(src, campaignReqs(4, 3000))
	wire := checkpointBytes(t, src, "fp", 3000)

	open := func(fc *core.CacheCheckpoint) *core.CheckpointBlock { return &fc.Blocks[fc.Regions[0].Open] }
	// negativeLBA rewrites the first valid page to cache LBA -7, device
	// token included, so only the LBA's sign is wrong.
	negativeLBA := func(fc *core.CacheCheckpoint) {
		lba := int64(-7)
		for b, slots := range fc.Slots {
			for s, slot := range slots {
				for sub, st := range slot.Pages {
					if st.Valid {
						fc.Slots[b][s].Pages[sub].LBA = lba
						fc.Device.Blocks[b].Slots[s].Data[sub] = uint64(lba)
						return
					}
				}
			}
		}
		t.Fatal("checkpoint caches no page")
	}
	// slcSecondPage makes the device hold the slot of the first valid
	// second sub-page as SLC.
	slcSecondPage := func(fc *core.CacheCheckpoint) {
		for b, slots := range fc.Slots {
			for s, slot := range slots {
				if slot.Pages[1].Valid {
					fc.Device.Blocks[b].Slots[s].Mode = wear.SLC
					return
				}
			}
		}
		t.Fatal("checkpoint caches no second sub-page")
	}
	for _, tc := range []struct {
		name   string
		mutate func(fc *core.CacheCheckpoint)
		want   string
	}{
		{"scrub sub", func(fc *core.CacheCheckpoint) { fc.ScrubSub = 9 }, "scrub cursor"},
		{"scrub block", func(fc *core.CacheCheckpoint) { fc.ScrubBlock = -1 }, "scrub cursor"},
		{"scrub slot", func(fc *core.CacheCheckpoint) { fc.ScrubSlot = 1 << 20 }, "scrub cursor"},
		{"open cursor slot", func(fc *core.CacheCheckpoint) { open(fc).CursorSlot = -3 }, "cursor -3/"},
		{"open cursor sub", func(fc *core.CacheCheckpoint) { open(fc).CursorSub = 7 }, "/7 out of range"},
		{"open cursor in SLC slot", func(fc *core.CacheCheckpoint) {
			o := fc.Regions[0].Open
			fc.Blocks[o].CursorSub = 1
			fc.Device.Blocks[o].Slots[fc.Blocks[o].CursorSlot].Mode = wear.SLC
		}, "/1 is not inside an MLC slot"},
		{"page strength", func(fc *core.CacheCheckpoint) { fc.Slots[0][0].Pages[0].Strength = 200 }, "ECC strength 200/"},
		{"page mode", func(fc *core.CacheCheckpoint) { fc.Slots[0][0].StagedMode = 9 }, "staged 9, out of range"},
		{"device slot mode 9", func(fc *core.CacheCheckpoint) { fc.Device.Blocks[0].Slots[0].Mode = 9 }, "density mode 9,"},
		{"second sub-page in SLC slot", slcSecondPage, "claims a second sub-page"},
		{"device erase count negative", func(fc *core.CacheCheckpoint) { fc.Device.Blocks[0].EraseCount = -1 }, "erase count -1 out of range"},
		{"device erase count runaway", func(fc *core.CacheCheckpoint) { fc.Device.Blocks[0].EraseCount = 1 << 40 }, "erase count 1099511627776 out of range"},
		{"negative lba", negativeLBA, "negative LBA -7"},
		{"negative wear statistics", func(fc *core.CacheCheckpoint) { fc.Blocks[0].Status.TotalECC = -5 }, "negative wear statistics"},
		{"retired outside FBST", func(fc *core.CacheCheckpoint) { fc.Device.Blocks[badBlock].Retired = false }, "device retirement is false"},
		{"device retires a live block", func(fc *core.CacheCheckpoint) { fc.Device.Blocks[fc.Regions[0].Free[0]].Retired = true }, "device retirement is true"},
		{"device reads", func(fc *core.CacheCheckpoint) { fc.Device.Blocks[0].Reads = -100 }, "read count -100"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := ReadCheckpoint(bytes.NewReader(wire))
			if err != nil {
				t.Fatal(err)
			}
			if ck.Systems[0].Flash.Regions[0].Open < 0 {
				t.Fatal("checkpoint has no open block in region 0")
			}
			tc.mutate(ck.Systems[0].Flash)
			e, err := New(Config{Shards: 1, Hier: hc})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Restore(ck); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore returned %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
