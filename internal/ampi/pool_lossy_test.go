//go:build race || msgpoison

package ampi

// lossyPool: the race detector drops a random share of sync.Pool puts,
// and the msgpoison tag drops every freed message, so a steady-state
// step may allocate each of its messages afresh.
const lossyPool = true
