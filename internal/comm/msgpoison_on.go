//go:build msgpoison

package comm

// msgPoison makes Message.Free scribble and drop instead of recycle.
const msgPoison = true
