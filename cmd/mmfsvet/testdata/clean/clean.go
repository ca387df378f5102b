// Package clean is a package every analyzer passes.
package clean

// Sum adds its arguments.
func Sum(a, b int) int { return a + b }
