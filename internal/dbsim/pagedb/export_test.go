package pagedb

// MaxLSN is the newest log record the transaction appended.
func (tx *Tx) MaxLSN() uint64 { return tx.maxLSN }
