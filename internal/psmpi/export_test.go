package psmpi

// ForceMessagePath keeps every allreduce on the message path, also on
// order-free launches, until the returned function restores the collective
// rendezvous. It exists so tests outside the package can compare the two
// paths; it is not safe to flip while a launch runs.
func ForceMessagePath() (restore func()) {
	messagePathOnly.Store(true)
	return func() { messagePathOnly.Store(false) }
}
