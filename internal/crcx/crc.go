// Package crcx implements the CRC-32 (IEEE 802.3 polynomial) checksum
// the Flash memory controller uses for error *detection* on top of the
// BCH corrector (paper section 4.1.2). The engine is a slice-by-4
// table engine modelling the "high-performance CMOS 32-bit parallel
// CRC engine" the paper cites; the tests pin it to a bit-serial
// reference.
package crcx

// Poly is the IEEE 802.3 CRC-32 polynomial in reversed bit order.
const Poly = 0xEDB88320

// Size is the checksum footprint in the Flash spare area, in bytes.
const Size = 4

var tables = buildTables()

// buildTables constructs the 4 slicing tables. Table 0 is the classic
// byte-at-a-time table; table k extends it by k extra zero bytes.
func buildTables() *[4][256]uint32 {
	var t [4][256]uint32
	for i := 0; i < 256; i++ {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 == 1 {
				crc = crc>>1 ^ Poly
			} else {
				crc >>= 1
			}
		}
		t[0][i] = crc
	}
	for i := 0; i < 256; i++ {
		crc := t[0][i]
		for k := 1; k < 4; k++ {
			crc = t[0][crc&0xFF] ^ crc>>8
			t[k][i] = crc
		}
	}
	return &t
}

// Checksum returns the CRC-32 of data using the parallel (slice-by-4)
// engine.
func Checksum(data []byte) uint32 {
	return Update(0, data)
}

// Update continues a CRC-32 computation with more data.
func Update(crc uint32, data []byte) uint32 {
	crc = ^crc
	for len(data) >= 4 {
		crc ^= uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24
		crc = tables[3][crc&0xFF] ^
			tables[2][crc>>8&0xFF] ^
			tables[1][crc>>16&0xFF] ^
			tables[0][crc>>24]
		data = data[4:]
	}
	for _, b := range data {
		crc = tables[0][byte(crc)^b] ^ crc>>8
	}
	return ^crc
}

// Append serialises crc little-endian onto dst, the layout used in the
// Flash page spare area (4 bytes, paper section 4.1).
func Append(dst []byte, crc uint32) []byte {
	return append(dst,
		byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}

// Extract reads a little-endian CRC written by Append. It panics if b
// is shorter than Size.
func Extract(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
