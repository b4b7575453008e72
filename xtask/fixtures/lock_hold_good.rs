// Clean twin of lock_hold_bad.rs: the guard is scoped to a block that
// closes before the scan, and stats is locked before (never under) the
// store lock.

impl Ctx {
    fn scan_outside_guard(&self, source: &dyn PlanSource) -> Result<Batch, PlanError> {
        let cell = {
            let mut scans = self.scans.lock().expect("scan cache poisoned");
            scans.entry_cell("w")
        };
        // Guard released: the fetch convoys nobody.
        let batch = source.scan_batches("w", &self.request)?;
        cell.fill(batch.clone());
        Ok(batch)
    }

    fn resume_outside_guard(&self, source: &dyn PlanSource) -> Result<Batch, PlanError> {
        let (old_key, mark) = {
            let scans = self.scans.lock().expect("scan cache poisoned");
            scans.predecessor(&self.key)
        };
        // Guard released across the delta fetch; the predecessor is taken
        // out only afterwards, in a statement-scoped hold.
        let delta = source.resume_batches("w", &self.request, 1024, &mark)?;
        let old = self.scans.lock().expect("scan cache poisoned").remove(&old_key);
        Ok(old.appended(delta))
    }

    fn stats_then_store(&self, row: Tuple) {
        let mut stats = self.stats.lock();
        stats.observe_row(&row);
        self.rows.write().push(row);
    }

    fn dropped_before_scan(&self) -> Result<Relation, WrapperError> {
        let guard = self.cache.lock().unwrap();
        let hint = guard.hint();
        drop(guard);
        self.wrapper.scan_batches(&hint)
    }
}
