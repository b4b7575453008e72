//! Bad fixture for the `durability` lint: the write path applies before it
//! commits, `insert_doc` pokes the store itself instead of reaching the
//! write path, `insert_docs` reaches it but *also* applies beside it, and
//! `push_row` is missing entirely (dropped out of coverage).

impl BdiSystem {
    pub fn apply(&self, write: Write) -> Result<usize, DurableError> {
        let mut log = self.journal.as_ref().map(Journal::ready).transpose()?;
        let op = Op::encode(write.clone(), self)?;
        log.wal.append(op.store_id(), &encode(&op)?)?;
        // Applied before the fsync: a crash here acknowledges nothing, but
        // a failed commit leaves memory ahead of the log.
        let applied = self.apply_write(write);
        log.wal.commit()?;
        applied
    }

    fn apply_write(&self, write: Write) -> Result<usize, DurableError> {
        match write {
            Write::InsertQuad(quad) => Ok(usize::from(self.quads().insert(&quad))),
            Write::InsertDoc(c, d) => self.docs.insert(&c, d).map(|_| 1),
        }
    }
}

impl DurableSystem {
    pub fn insert_doc(&self, collection: &str, doc: Value) -> Result<(), DurableError> {
        // No WAL append at all: an acknowledged write a crash forgets.
        self.0.store().insert(collection, doc).map_err(Into::into)
    }

    pub fn insert_docs(&self, collection: &str, docs: Vec<Value>) -> Result<usize, DurableError> {
        // Applies beside the write path: the store mutates even if the
        // journal append inside `apply` fails.
        self.0.store().insert_many(collection, docs.clone())?;
        self.0.apply(Write::InsertDocs(collection.into(), docs))
    }
}
