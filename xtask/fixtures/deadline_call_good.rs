// A registered loop whose only evidence is a call to a listed checking
// function: `next_batch` checks the deadline on every pull.

fn drain(plan: &Plan, mut op: Operator) -> Result<Vec<Row>, PlanError> {
    let mut rows = Vec::new();
    while let Some(batch) = op.next_batch()? {
        rows.extend(decode(&batch));
    }
    Ok(rows)
}
