//! Good fixture for the `durability` lint: every registered entry point
//! reaches the one write path, nothing applies directly, and the write path
//! appends + commits before its apply step.

impl BdiSystem {
    pub fn apply(&self, write: Write) -> Result<usize, DurableError> {
        self.validate(&write)?;
        let mut log = self.journal.as_ref().map(Journal::ready).transpose()?;
        let write = match log.as_deref_mut() {
            None => Ok(write),
            Some(log) => {
                let op = Op::encode(write, self)?;
                log.wal.append(op.store_id(), &encode(&op)?)?;
                log.wal.commit()?;
                op.decode()
            }
        };
        write.and_then(|write| self.apply_write(write))
    }

    fn apply_write(&self, write: Write) -> Result<usize, DurableError> {
        match write {
            Write::InsertQuad(quad) => Ok(usize::from(self.quads().insert(&quad))),
            Write::InsertDoc(c, d) => self.docs.insert(&c, d).map(|_| 1),
            Write::PushRow(w, r) => self.table(&w)?.push(r).map(|_| 1),
        }
    }
}

impl DurableSystem {
    pub fn insert_doc(&self, collection: &str, doc: Value) -> Result<(), DurableError> {
        self.0.apply(Write::InsertDoc(collection.into(), doc)).map(drop)
    }

    pub fn insert_docs(&self, collection: &str, docs: Vec<Value>) -> Result<usize, DurableError> {
        self.0.apply(Write::InsertDocs(collection.into(), docs))
    }

    pub fn push_row(&self, wrapper: &str, row: Vec<Value>) -> Result<(), DurableError> {
        self.0.apply(Write::PushRow(wrapper.into(), row)).map(drop)
    }
}
