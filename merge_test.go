package flashdc

// Reflection-driven tests for the stats Merge methods the sharded
// engine relies on: every exported numeric field of every mergeable
// counter struct must come out as the sum of the inputs. Driving the
// check by reflection means a field added to a struct but forgotten in
// its Merge fails here instead of silently under-reporting in merged
// shard reports.

import (
	"fmt"
	"reflect"
	"testing"

	"flashdc/internal/core"
	"flashdc/internal/disk"
	"flashdc/internal/dram"
	"flashdc/internal/fault"
	"flashdc/internal/hier"
	"flashdc/internal/nand"
	"flashdc/internal/obs"
	"flashdc/internal/power"
	"flashdc/internal/sched"
	"flashdc/internal/tables"
)

// fillCounters assigns a distinct nonzero value to every settable
// numeric field of the struct v points to, returning how many fields
// it touched. Values are spaced so sums cannot collide by accident.
func fillCounters(t *testing.T, v reflect.Value, base int64) int {
	t.Helper()
	n := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !f.CanSet() {
			continue
		}
		n++
		val := base + int64(i+1)*7
		switch f.Kind() {
		case reflect.Int64, reflect.Int:
			f.SetInt(val)
		case reflect.Float64:
			f.SetFloat(float64(val))
		default:
			t.Fatalf("%s.%s: unhandled kind %v", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
	return n
}

// checkMergedSums verifies every settable numeric field of got equals
// the sum of the corresponding fields of a and b.
func checkMergedSums(t *testing.T, got, a, b reflect.Value) {
	t.Helper()
	for i := 0; i < got.NumField(); i++ {
		f := got.Field(i)
		if !f.CanSet() {
			continue
		}
		name := got.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int64, reflect.Int:
			if want := a.Field(i).Int() + b.Field(i).Int(); f.Int() != want {
				t.Errorf("%s.%s = %d, want %d", got.Type(), name, f.Int(), want)
			}
		case reflect.Float64:
			if want := a.Field(i).Float() + b.Field(i).Float(); f.Float() != want {
				t.Errorf("%s.%s = %v, want %v", got.Type(), name, f.Float(), want)
			}
		}
	}
}

// mergeByName invokes dst.Merge(src) whatever the method's receiver
// and argument shapes (pointer or value) are.
func mergeByName(t *testing.T, dst, src reflect.Value) {
	t.Helper()
	m := dst.Addr().MethodByName("Merge")
	if !m.IsValid() {
		t.Fatalf("%s has no Merge method", dst.Type())
	}
	arg := src
	if m.Type().In(0).Kind() == reflect.Ptr {
		arg = src.Addr()
	}
	m.Call([]reflect.Value{arg})
}

func TestStatsMergeSumsEveryField(t *testing.T) {
	structs := []any{
		hier.Stats{},
		core.Stats{},
		nand.Stats{},
		disk.Stats{},
		dram.Stats{},
		fault.Stats{},
		tables.FGST{},
		sched.Stats{},
	}
	for _, s := range structs {
		typ := reflect.TypeOf(s)
		t.Run(typ.String(), func(t *testing.T) {
			a := reflect.New(typ).Elem()
			b := reflect.New(typ).Elem()
			if n := fillCounters(t, a, 1000); n == 0 {
				t.Fatalf("%s has no settable counter fields", typ)
			}
			fillCounters(t, b, 500000)
			merged := reflect.New(typ).Elem()
			merged.Set(a)
			mergeByName(t, merged, b)
			checkMergedSums(t, merged, a, b)
		})
	}
}

// checkMergedByTags walks every field of an obs snapshot struct,
// unexported value rows included, and verifies the merged value obeys
// the field's `merge` tag: "keep" retains the receiver's value, "max"
// takes the maximum, and untagged fields accumulate (scalars and slice
// elements sum, struct elements recursively). A field added to the
// struct in a shape this walk doesn't know fails loudly, the same
// honesty property the flat counter structs get from
// TestStatsMergeSumsEveryField.
func checkMergedByTags(t *testing.T, prefix string, merged, a, b reflect.Value) {
	t.Helper()
	for i := 0; i < merged.NumField(); i++ {
		sf := merged.Type().Field(i)
		name := prefix + sf.Name
		m, av, bv := merged.Field(i), a.Field(i), b.Field(i)
		switch sf.Tag.Get("merge") {
		case "keep":
			// Shared rows and bounds must stay the receiver's own.
			same := false
			if k := m.Kind(); k == reflect.Ptr || k == reflect.Slice {
				same = m.Pointer() == av.Pointer()
			} else {
				same = reflect.DeepEqual(m.Interface(), av.Interface())
			}
			if !same {
				t.Errorf("%s = %v, want receiver's %v (merge:\"keep\")", name, m, av)
			}
		case "max":
			want := max(av.Int(), bv.Int())
			if m.Int() != want {
				t.Errorf("%s = %d, want max %d", name, m.Int(), want)
			}
		case "":
			switch m.Kind() {
			case reflect.Int64, reflect.Float64:
				checkSum(t, name, m, av, bv)
			case reflect.Slice:
				if m.Len() != av.Len() || av.Len() != bv.Len() {
					t.Fatalf("%s: unequal slice lengths", name)
				}
				for j := 0; j < m.Len(); j++ {
					elem := fmt.Sprintf("%s[%d]", name, j)
					if m.Index(j).Kind() == reflect.Struct {
						checkMergedByTags(t, elem+".", m.Index(j), av.Index(j), bv.Index(j))
					} else {
						checkSum(t, elem, m.Index(j), av.Index(j), bv.Index(j))
					}
				}
			default:
				t.Fatalf("%s: kind %v needs a merge tag or slice merge support", name, m.Kind())
			}
		default:
			t.Fatalf("%s: unknown merge tag %q", name, sf.Tag.Get("merge"))
		}
	}
}

// checkSum verifies the numeric value m is the sum of a and b.
func checkSum(t *testing.T, name string, m, a, b reflect.Value) {
	t.Helper()
	switch m.Kind() {
	case reflect.Int64:
		if m.Int() != a.Int()+b.Int() {
			t.Errorf("%s = %d, want sum %d", name, m.Int(), a.Int()+b.Int())
		}
	case reflect.Float64:
		if m.Float() != a.Float()+b.Float() {
			t.Errorf("%s = %v, want sum %v", name, m.Float(), a.Float()+b.Float())
		}
	default:
		t.Fatalf("%s: unhandled kind %v", name, m.Kind())
	}
}

func TestObsSnapshotMergeHonoursTags(t *testing.T) {
	hA := obs.HistogramSnapshot{Bounds: []int64{10, 20}, Buckets: []int64{1, 2, 3}, Count: 6, Sum: 30}
	hB := obs.HistogramSnapshot{Bounds: []int64{10, 20}, Buckets: []int64{4, 5, 6}, Count: 15, Sum: 100}
	// Two shards' observers report the same series with different
	// values, as every shard of one engine does.
	shard := func(c int64, g float64, h obs.HistogramSnapshot, final bool) obs.Snapshot {
		o := obs.New(obs.Options{Metrics: true})
		o.RegisterCollector(func(s *obs.Sample) {
			s.Counter("c", c)
			s.Counter("d", 2*c)
			s.Gauge("g", g)
			s.Histogram("h", h)
		})
		o.Finish()
		s := *o.Live()
		s.Seq, s.Final = 3, final
		return s
	}
	a := shard(1, 1.5, hA, true)
	b := shard(10, 2.5, hB, false)
	a.T, b.T = 10, 25
	merged := a.Clone()
	merged.Merge(b)
	checkMergedByTags(t, "Snapshot.", reflect.ValueOf(merged), reflect.ValueOf(a), reflect.ValueOf(b))

	mh := hA.Clone()
	mh.Merge(hB)
	checkMergedByTags(t, "HistogramSnapshot.",
		reflect.ValueOf(mh), reflect.ValueOf(hA), reflect.ValueOf(hB))
}

func TestPowerBreakdownAdd(t *testing.T) {
	a := power.Breakdown{MemRead: 1, MemWrite: 2, MemIdle: 3, Flash: 4, Disk: 5}
	b := power.Breakdown{MemRead: 10, MemWrite: 20, MemIdle: 30, Flash: 40, Disk: 50}
	got := reflect.ValueOf(a.Add(b))
	checkMergedSums(t, got, reflect.ValueOf(a), reflect.ValueOf(b))
	if sum := a.Add(b); sum.Total() != a.Total()+b.Total() {
		t.Fatalf("Total = %v, want %v", sum.Total(), a.Total()+b.Total())
	}
}
