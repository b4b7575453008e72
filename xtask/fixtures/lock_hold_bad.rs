// Deliberately bad: a scan issued under a live cache guard (rule 1), a
// resumed scan issued under the guard that found its predecessor (rule 1
// again: O(appended) is still a source call), and a stats lock taken while
// a store guard is live (rule 2).

impl Ctx {
    fn scan_under_guard(&self, source: &dyn PlanSource) -> Result<Batch, PlanError> {
        let mut scans = self.scans.lock().expect("scan cache poisoned");
        // The guard is still live here: every page fetch of this scan
        // convoys every other query behind the cache mutex.
        let batch = source.scan_batches("w", &self.request)?;
        scans.insert(batch.clone());
        Ok(batch)
    }

    fn resume_under_guard(&self, source: &dyn PlanSource) -> Result<Batch, PlanError> {
        let mut scans = self.scans.lock().expect("scan cache poisoned");
        let (old_key, mark) = scans.predecessor(&self.key);
        // Still under `scans`: the delta fetch convoys every other query,
        // however few records were appended.
        let delta = source.resume_batches("w", &self.request, 1024, &mark)?;
        let table = scans.upgrade(old_key, delta);
        Ok(table)
    }

    fn stats_under_store(&self) {
        let rows = self.rows.write();
        // Inverted order: the workspace contract is stats first.
        let mut stats = self.stats.lock();
        stats.observe_all(&rows);
    }
}
