//go:build race

package store_test

// stride thins the matrices under the race detector, which slows them
// tenfold; CI runs them whole without it.
const stride = 8
