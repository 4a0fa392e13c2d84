package stream

// FeedbackPerTick is the capacity a deferred connection's feedback queue
// is given once.
const FeedbackPerTick = feedbackPerTick

// FeedbackCap returns the capacity of the connection's feedback queue.
func FeedbackCap(c *Conn) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cap(c.pendingFB)
}
