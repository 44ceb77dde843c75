//go:build !race && !msgpoison

package npb

// lossyPool: see pool_lossy_test.go. Here every freed message goes back
// to the pool.
const lossyPool = false
