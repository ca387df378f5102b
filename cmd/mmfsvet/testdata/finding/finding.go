// Package finding lets a map's iteration order escape: one detmap
// finding.
package finding

import "fmt"

// Print prints the map in whatever order a range visits it.
func Print(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
