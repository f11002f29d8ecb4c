package tables

import (
	"flashdc/internal/nand"
	"flashdc/internal/wear"
)

// DRAM footprint of the management tables, following the paper's
// section 3 accounting: the FCHT and FPST dominate because they hold
// one entry per Flash page; the FBST is per block and the FGST is a
// fixed-size summary. The paper quotes the total as "less than 2% of
// the Flash size", about 360MB of DRAM for a 32GB Flash.
const (
	// FCHTEntryBytes is one tag: logical block address field plus the
	// Flash memory address field (section 3.1).
	FCHTEntryBytes = 14
	// FPSTEntryBytes is one page status entry: ECC strength, SLC/MLC
	// mode, saturating access counter and valid bit (section 3.2).
	FPSTEntryBytes = 8
	// FBSTEntryBytes is one block status entry: erase count and
	// degree of wear (section 3.3).
	FBSTEntryBytes = 8
	// FGSTBytes is the global summary (section 3.4).
	FGSTBytes = 64
)

// MetadataBytes returns the DRAM the four tables need to manage a
// Flash of the given byte capacity (counted at the maximum page
// population, i.e. every slot in MLC mode).
func MetadataBytes(flashBytes int64) int64 {
	pages := flashBytes / nand.PageSize
	blocks := int64(nand.BlocksForCapacity(flashBytes, wear.MLC))
	return pages*(FCHTEntryBytes+FPSTEntryBytes) + blocks*FBSTEntryBytes + FGSTBytes
}
