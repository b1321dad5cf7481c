package pipeline

// IssueRingLen reports the length of the current run's issue books.
func IssueRingLen(s *Sim) int { return len(s.cur.issueCap.ent) }

// IssueRingStart is the length the issue books start at.
const IssueRingStart = issueRingStart
