// Package broken does not type-check.
package broken

// N is declared an int and given a string.
var N int = "one"
