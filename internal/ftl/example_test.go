package ftl_test

import (
	"fmt"

	"flashdc/internal/ftl"
)

// Example shows the SSD usage model: logical pages written
// out-of-place, the cleaner's write amplification becoming visible as
// the device fills.
func Example() {
	f := ftl.New(ftl.Config{Blocks: 8, Seed: 1})

	// Fill 80% of the usable space, then rewrite it in a strided
	// order so invalid pages scatter across blocks (sequential
	// rewrites would give the cleaner fully-invalid victims for free).
	n := int64(float64(f.UsablePages()) * 0.8)
	for l := int64(0); l < n; l++ {
		if _, err := f.Write(l); err != nil {
			panic(err)
		}
	}
	for i := int64(0); i < 2*n; i++ {
		if _, err := f.Write(i * 131 % n); err != nil {
			panic(err)
		}
	}
	st := f.Stats()
	fmt.Println("cleaner ran:", st.GCErases > 0)
	fmt.Println("write amplification > 1:", st.WriteAmplification() > 1)
	// Output:
	// cleaner ran: true
	// write amplification > 1: true
}
