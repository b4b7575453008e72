// Clean twin of deadline_bad.rs: every loop either consults the deadline
// (in its body or its header), or sends into a bounded channel (so a
// hung-up consumer cancels the producer).

fn next_batch(&mut self) -> Result<Option<Batch>, PlanError> {
    loop {
        if self.policy.deadline_passed() {
            return Err(PlanError::DeadlineExceeded);
        }
        match self.source.pull() {
            Some(batch) => return Ok(Some(batch)),
            None => continue,
        }
    }
}

fn run(self, tx: SyncSender<Page>) {
    let mut page = 0;
    loop {
        let fetched = self.endpoint.fetch(page);
        if tx.send(fetched).is_err() {
            return; // consumer hung up
        }
        page += 1;
    }
}

fn collect_scan(&self, batches: Batches, deadline: Option<Instant>) -> Result<Batch, PlanError> {
    let mut table = Batch::new();
    // Evidence in the header: the interning iterator checks the deadline
    // before every batch it yields.
    for batch in self.interned(batches, deadline) {
        table.append(&batch?);
    }
    Ok(table)
}
