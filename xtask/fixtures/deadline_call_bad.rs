// Deliberately bad: the registered loop pulls through an unlisted helper,
// which nothing proves checks the deadline — the call is no evidence.

fn drain(plan: &Plan, mut op: Operator) -> Result<Vec<Row>, PlanError> {
    let mut rows = Vec::new();
    while let Some(batch) = pull_through(&mut op)? {
        rows.extend(decode(&batch));
    }
    Ok(rows)
}
