package nand

import (
	"fmt"

	"flashdc/internal/sim"
)

// Payload support: the trace-driven simulators store only 64-bit
// tokens, but the device can also hold real page contents so the error
// correction stack can be exercised end to end — wear flips actual
// bits of the stored bytes, and the controller's BCH codec has to
// recover them. Payload pages are allocated lazily, so simulations
// that never call ProgramPage pay nothing.

// PageBuf is one page image: data area plus spare area.
type PageBuf struct {
	Data  []byte // PageSize bytes
	Spare []byte // up to SpareSize bytes
}

// ProgramPage writes real page contents (data plus spare image, e.g.
// the ECC bytes) along with the token. Sizes are enforced: data must
// be exactly PageSize, spare at most SpareSize.
func (d *Device) ProgramPage(a Addr, token uint64, data, spare []byte) (sim.Duration, error) {
	if len(data) != PageSize {
		return 0, fmt.Errorf("nand: payload %d bytes, want %d", len(data), PageSize)
	}
	if len(spare) > SpareSize {
		return 0, fmt.Errorf("nand: spare %d bytes exceeds %d", len(spare), SpareSize)
	}
	lat, err := d.Program(a, token)
	if err != nil {
		return 0, err
	}
	_, sl, _ := d.slot(a)
	if sl.payload == nil {
		sl.payload = new([2]PageBuf)
	}
	sl.payload[a.Sub()] = PageBuf{
		Data:  append([]byte(nil), data...),
		Spare: append([]byte(nil), spare...),
	}
	return lat, nil
}

// ReadPage returns the stored page contents with wear-induced bit
// errors applied: exactly BitErrors cells are flipped, at positions
// deterministic in (address, erase count), spread across the data and
// spare areas as real failures would be. The returned buffers are
// copies; the stored image is untouched.
func (d *Device) ReadPage(a Addr) (PageBuf, ReadResult, error) {
	res, err := d.Read(a)
	if err != nil {
		return PageBuf{}, ReadResult{}, err
	}
	_, sl, _ := d.slot(a)
	if sl.payload == nil || sl.payload[a.Sub()].Data == nil {
		return PageBuf{}, ReadResult{}, fmt.Errorf("nand: %v has no payload (token-only page)", a)
	}
	src := sl.payload[a.Sub()]
	buf := PageBuf{
		Data:  append([]byte(nil), src.Data...),
		Spare: append([]byte(nil), src.Spare...),
	}
	if res.BitErrors > 0 {
		d.corruptPage(a, buf, res.BitErrors)
	}
	return buf, res, nil
}

// corruptPage flips n distinct cells of the page image, deterministic
// for a given (device seed, address, erase count) so repeated reads of
// the same worn page fail the same way — the "fail consistently due to
// wear out" behaviour of section 5.2.1.
func (d *Device) corruptPage(a Addr, buf PageBuf, n int) {
	totalBits := len(buf.Data)*8 + len(buf.Spare)*8
	if n > totalBits {
		n = totalBits
	}
	seed := d.cfg.Seed ^
		uint64(a.Block())<<40 ^ uint64(a.Slot())<<24 ^ uint64(a.Sub())<<16 ^
		uint64(d.blocks[a.Block()].eraseCount)
	rng := sim.NewRNG(seed)
	seen := make(map[int]bool, n)
	for len(seen) < n {
		pos := rng.Intn(totalBits)
		if seen[pos] {
			continue
		}
		seen[pos] = true
		if pos < len(buf.Data)*8 {
			buf.Data[pos/8] ^= 1 << (pos % 8)
		} else {
			p := pos - len(buf.Data)*8
			buf.Spare[p/8] ^= 1 << (p % 8)
		}
	}
}
