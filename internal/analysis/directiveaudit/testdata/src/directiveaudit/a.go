// Package directiveaudit is testdata for the driver-implemented stale
// directive audit: used allows survive, stale ones become findings whose
// fix deletes them cleanly, and no allow can name the audit itself.
package directiveaudit

import "time"

func used(d time.Duration) {
	time.Sleep(d) //simlint:allow nowalltime throttles a log follower outside the sim
}

func staleTrailing() time.Duration {
	return 3 * time.Millisecond //simlint:allow nowalltime durations are values // want `stale //simlint:allow nowalltime directive suppresses no finding; delete it`
}

func staleOwnLine() time.Duration {
	//simlint:allow nowalltime guards a line that is clean // want `stale //simlint:allow nowalltime directive suppresses no finding; delete it`
	return time.Duration(0)
}

func noVouch() time.Duration {
	//simlint:allow directiveaudit nothing vouches for a stale directive // want `unknown analyzer directiveaudit in //simlint:allow directive`
	return time.Duration(1)
}
