package core

import (
	"fmt"

	"flashdc/internal/ecc"
	"flashdc/internal/nand"
	"flashdc/internal/tables"
	"flashdc/internal/wear"
)

// Descriptor is the control message the device driver sends to the
// programmable Flash memory controller before a page access (sections
// 4 and 5.2): the target page plus its active ECC strength, read from
// the FPST, and its density mode, read from the device.
type Descriptor struct {
	Addr     nand.Addr
	Strength ecc.Strength
	Mode     wear.Mode
}

// String implements fmt.Stringer.
func (d Descriptor) String() string {
	return fmt.Sprintf("%v t=%d %v", d.Addr, d.Strength, d.Mode)
}

// DescriptorFor builds the controller descriptor for a cached disk
// page, as the device driver would before scheduling the access. ok is
// false when the page is not cached.
func (c *Cache) DescriptorFor(lba int64) (Descriptor, bool) {
	addr, ok := c.fcht.Get(lba)
	if !ok {
		return Descriptor{}, false
	}
	return Descriptor{Addr: addr, Strength: c.fpst.At(addr).Strength, Mode: c.dev.Mode(addr)}, true
}

// MetadataBytes returns the DRAM footprint of the four management
// tables for this cache's Flash size (section 3: "less than 2% of the
// Flash size").
func (c *Cache) MetadataBytes() int64 {
	return tables.MetadataBytes(c.cfg.FlashBytes)
}
