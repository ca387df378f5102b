// Package dep proves cross-package fact propagation: it holds no
// hot-path root, but its unbounded-loop summary is exported as a
// pathFact and absorbed by the root fixture package's hot path.
package dep

var m map[int]int

// Walk ranges a map on behalf of callers.
func Walk() {
	for k := range m { // want `range over map on the real-time path, reached via a\.Hot → dep\.Walk —`
		_ = k
	}
}
