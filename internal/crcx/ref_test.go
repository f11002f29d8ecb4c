package crcx

// ChecksumBitSerial returns the CRC-32 of data one bit at a time. It is
// the reference implementation the table engines are validated against;
// only tests call it, so it lives in a test file.
func ChecksumBitSerial(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		for bit := 0; bit < 8; bit++ {
			in := uint32(b>>bit) & 1
			if (crc^in)&1 == 1 {
				crc = crc>>1 ^ Poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}
