package engine

import (
	"errors"
	"fmt"
	"io"

	"flashdc/internal/envelope"
	"flashdc/internal/hier"
)

// Campaign checkpointing: a multi-year lifetime campaign is hours of
// simulation; Checkpoint/Restore let it stop after any request batch
// boundary and resume bit-identically. The engine level is the natural
// unit — a checkpoint is the vector of per-shard hierarchy states plus
// the global stream position, and a single-shard engine checkpoints
// the monolithic simulation.

// ErrCorruptCheckpoint tags every checkpoint-file validation failure:
// truncation, foreign files, version skew, CRC damage.
var ErrCorruptCheckpoint = errors.New("engine: corrupt checkpoint")

const (
	checkpointMagic   = "FDCK"
	checkpointVersion = 2
)

// Checkpoint is a whole-campaign snapshot.
type Checkpoint struct {
	// Fingerprint names the configuration the checkpoint was taken
	// under (the caller chooses the encoding — fdcsim uses its flag
	// set); Restore via ReadCheckpoint callers compare it before
	// rebuilding anything.
	Fingerprint string
	// Consumed is the number of global workload requests simulated
	// before the snapshot; resuming replays the stream from there.
	Consumed int64
	// Shards is the engine width; a checkpoint only restores onto an
	// engine of the same width.
	Shards  int
	Systems []hier.SystemCheckpoint
}

// Checkpoint captures every shard's state. The engine must be idle (no
// run in flight). fingerprint and consumed are recorded verbatim for
// the resuming side.
func (e *Engine) Checkpoint(fingerprint string, consumed int64) (*Checkpoint, error) {
	ck := &Checkpoint{
		Fingerprint: fingerprint,
		Consumed:    consumed,
		Shards:      len(e.shards),
		Systems:     make([]hier.SystemCheckpoint, len(e.shards)),
	}
	for i, sh := range e.shards {
		sck, err := sh.Checkpoint()
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", i, err)
		}
		ck.Systems[i] = *sck
	}
	return ck, nil
}

// Restore overwrites a freshly built engine (same Config) with a
// checkpoint of the same shard width.
func (e *Engine) Restore(ck *Checkpoint) error {
	if ck.Shards != len(e.shards) || len(ck.Systems) != len(e.shards) {
		return fmt.Errorf("engine: checkpoint for %d shards (%d states), engine has %d",
			ck.Shards, len(ck.Systems), len(e.shards))
	}
	for i, sh := range e.shards {
		if err := sh.Restore(&ck.Systems[i]); err != nil {
			return fmt.Errorf("engine: shard %d: %w", i, err)
		}
	}
	return nil
}

// WriteCheckpoint serialises ck to w inside the standard
// self-validating envelope (magic "FDCK"). The byte stream is a pure
// function of the checkpointed state — no maps or timestamps are
// encoded — so identical states produce identical files, which is what
// lets CI compare a resumed campaign's checkpoint byte-for-byte
// against an unbroken run's.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	return envelope.Write(w, checkpointMagic, checkpointVersion, ck)
}

// ReadCheckpoint decodes and validates a checkpoint file. Corruption-
// class failures wrap ErrCorruptCheckpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var ck Checkpoint
	if err := envelope.Read(r, checkpointMagic, checkpointVersion, &ck); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	return &ck, nil
}
