package envelope

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

const (
	testMagic   = "TEST"
	testVersion = 3
)

type testPayload struct {
	Name  string
	Count int64
	Cells []uint16
}

func encode(t *testing.T, payload any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, testMagic, testVersion, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal recomputes the CRC trailer over a modified header+payload, so
// the damage reaches the checks behind the CRC.
func reseal(data []byte) []byte {
	body := append([]byte(nil), data[:len(data)-crc32.Size]...)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

func TestRoundTrip(t *testing.T) {
	in := testPayload{Name: "shard-0", Count: -42, Cells: []uint16{1, 2, 65535}}
	data := encode(t, in)
	if string(data[:MagicSize]) != testMagic {
		t.Fatalf("magic %q, want %q", data[:MagicSize], testMagic)
	}
	if got := binary.LittleEndian.Uint64(data[8:]); got != uint64(len(data)-HeaderSize-crc32.Size) {
		t.Fatalf("header payload length %d, file carries %d", got, len(data)-HeaderSize-crc32.Size)
	}
	var out testPayload
	if err := Read(bytes.NewReader(data), testMagic, testVersion, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	if again := encode(t, in); !bytes.Equal(again, data) {
		t.Fatal("encoding the same payload twice gave different bytes")
	}
}

// TestReadRejects covers every validation branch of Read. The magic,
// version, length and gob cases recompute the CRC, so each damage is
// rejected by its own check and not by a checksum mismatch.
func TestReadRejects(t *testing.T) {
	good := encode(t, testPayload{Name: "x", Count: 7, Cells: []uint16{9}})
	mutate := func(f func(d []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string // names the check that must reject it
	}{
		{"empty", nil, "truncated"},
		{"truncated header", good[:HeaderSize], "truncated"},
		{"foreign magic", mutate(func(d []byte) []byte { copy(d, "FDCM"); return reseal(d) }), "bad magic"},
		{"version skew", mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[4:], testVersion+1)
			return reseal(d)
		}), "format version"},
		{"payload length mismatch", mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(d[8:])+1)
			return reseal(d)
		}), "payload length"},
		{"CRC damage", mutate(func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d }), "CRC"},
		{"payload bit flip", mutate(func(d []byte) []byte { d[HeaderSize+2] ^= 0x40; return d }), "CRC"},
		{"gob garbage under a valid CRC", mutate(func(d []byte) []byte {
			for i := HeaderSize; i < len(d)-crc32.Size; i++ {
				d[i] = 0xFF
			}
			return reseal(d)
		}), "decoding payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out testPayload
			err := Read(bytes.NewReader(tc.data), testMagic, testVersion, &out)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Read returned %v, want ErrCorrupt naming %q", err, tc.want)
			}
		})
	}
}

// TestReadRejectsWrongPayloadType: a valid envelope whose gob payload
// does not decode into the caller's type is corrupt for that caller.
func TestReadRejectsWrongPayloadType(t *testing.T) {
	data := encode(t, testPayload{Name: "x", Count: 1})
	var out []string
	err := Read(bytes.NewReader(data), testMagic, testVersion, &out)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "decoding payload") {
		t.Fatalf("Read returned %v, want ErrCorrupt from the gob decoder", err)
	}
}

func TestMagicSizePanics(t *testing.T) {
	for _, magic := range []string{"", "FDC", "FDCMX"} {
		for name, call := range map[string]func(){
			"Write": func() { Write(&bytes.Buffer{}, magic, testVersion, 1) },
			"Read":  func() { Read(bytes.NewReader(nil), magic, testVersion, new(int)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with %d-byte magic %q did not panic", name, len(magic), magic)
					}
				}()
				call()
			}()
		}
	}
}
