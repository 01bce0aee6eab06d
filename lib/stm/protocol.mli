(** The five conflict-detection modes as first-class commit protocols
    (Figure 1's design-space rows plus the multi-version extension),
    plus the shared machinery they are assembled from: contention
    arbitration, read-log validation and timestamp extension,
    encounter- and commit-time lock acquisition, and the serial commit
    gate. *)

(** Arbitrate with the owner of a contended resource: returns to
    re-attempt, raises [Abort_exn] to restart. *)
val arbitrate :
  Txn_state.t -> other:Txn_desc.t -> attempt:int -> unit

(** The whole read log still validates (see {!Rwset.Rlog.validate}). *)
val reads_valid : Txn_state.t -> bool

(** Revalidate and, on success, advance the snapshot to the present —
    the [extend_reads] alternative to aborting on a newer version. *)
val try_extend : Txn_state.t -> bool

(** Committed-state read under the TL2 snapshot discipline; appends to
    the read log.  The write-set hit is handled by the caller
    ({!Stm.read}). *)
val read_slow : Txn_state.t -> 'a Tvar.t -> attempt:int -> 'a

(** Multi-version read-write read: TL2 with a stale-read grace served
    from the version chain (the recorded stale version still fails
    commit validation if the transaction writes). *)
val read_mv : Txn_state.t -> 'a Tvar.t -> attempt:int -> 'a

(** Snapshot read at the transaction's [rv]: no owner wait, no read
    log.  Conflict-aborts only if the chain was reclaimed below [rv]
    (unreachable for registered snapshots). *)
val read_ro : Txn_state.t -> 'a Tvar.t -> 'a

(** The abort-free protocol {!Commit_ladder.run}'s snapshot rung installs
    for read-only snapshot transactions (not reachable via [select]). *)
val read_only_proto : Txn_state.proto

(** Lock the write-set commit plan in uid order. *)
val acquire_plan_locks : Txn_state.t -> unit

val acquire_commit_gate : Txn_state.t -> unit
val release_commit_gate : Txn_state.t -> unit

(** The protocol record for a mode — called once per atomic block. *)
val select : Txn_state.mode -> Txn_state.proto
