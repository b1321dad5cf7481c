package pipeline

// IssueRingLen reports the length of the current run's issue book.
func IssueRingLen(s *Sim) int { return len(s.cur.issue.slot) }

// IssueRingStart is the length the issue book starts at.
const IssueRingStart = issueRingStart
