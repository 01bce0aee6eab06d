(* The five conflict-detection modes as first-class commit protocols.

   Each mode of the paper's Figure 1 design space becomes one [proto]
   record (acquire/validate/publish/release plus the encounter-time
   hooks), built here and selected once per atomic block by
   {!select} — the hot paths then dispatch through the record instead
   of re-branching on [cfg.mode] at every read, write and commit. *)

open Txn_state

(* ------------------------------------------------------------------ *)
(* Conflict arbitration                                                 *)

(* Arbitrate against [other]; returns when the caller should re-attempt
   the acquisition, raises [Abort_exn] when the caller must restart. *)
let arbitrate t ~other ~attempt =
  check_alive t;
  (* Lock-wait polls are where an attempt can stall unboundedly, so
     they are a deadline checkpoint: an expired transaction stops
     queueing behind its adversary and aborts with [Timed_out]
     (no-op for irrevocable attempts). *)
  check_deadline t;
  if t.tdesc.Txn_desc.irrevocable then begin
    (* The serial-irrevocable holder always wins: kill the other party
       (it cannot be irrevocable too — there is a single token) and
       wait for it to notice and release. *)
    if Txn_desc.try_kill other then Stats.record_remote_abort ();
    Stats.record_lock_wait ();
    obs_wait ~txn:t.tdesc.Txn_desc.id ~held_by:other.Txn_desc.id t.backoff
  end
  else
    match t.cfg.cm.Contention.decide ~self:t.tdesc ~other ~attempt with
    | Contention.Wait ->
        Stats.record_lock_wait ();
        obs_wait ~txn:t.tdesc.Txn_desc.id ~held_by:other.Txn_desc.id t.backoff
    | Contention.Restart_self -> raise (Abort_exn Conflict)
    | Contention.Abort_other ->
        if Txn_desc.try_kill other then Stats.record_remote_abort ();
        (* Give the victim a beat to notice and release its locks. *)
        Backoff.once t.backoff

(* ------------------------------------------------------------------ *)
(* Read validation and timestamp extension                              *)

let reads_valid t = Rwset.Rlog.validate t.rset ~owner:t.tdesc

let try_extend t =
  let now = snapshot_clock ~serial:(t.cfg.mode = Serial_commit) in
  let ok = reads_valid t in
  obs_extend t ~ok;
  if ok then begin
    t.rv <- now;
    Stats.record_extension ();
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Encounter-time locking (eager modes)                                 *)

let rec lock_for_write :
    type a. visible_readers:bool -> t -> a Tvar.t -> attempt:int -> unit =
 fun ~visible_readers t tv ~attempt ->
  match Tvar.try_lock tv t.tdesc with
  | `Mine -> ()
  | `Locked ->
      t.locked <- Locked tv :: t.locked;
      chaos_point t Fault.Post_lock_acquire;
      if visible_readers then wait_out_readers t tv ~attempt:0
  | `Held other ->
      arbitrate t ~other ~attempt;
      lock_for_write ~visible_readers t tv ~attempt:(attempt + 1)

(* With visible readers, a writer that just locked [tv] must come to an
   agreement with every active reader before proceeding; either the
   readers finish/abort or this transaction restarts (releasing the
   lock on its abort path). *)
and wait_out_readers : type a. t -> a Tvar.t -> attempt:int -> unit =
 fun t tv ~attempt ->
  match Tvar.active_readers tv ~except:t.tdesc with
  | [] -> ()
  | other :: _ ->
      arbitrate t ~other ~attempt;
      wait_out_readers t tv ~attempt:(attempt + 1)

(* ------------------------------------------------------------------ *)
(* The committed-state read (slow path: no read-after-write hit)        *)

(* TL2 discipline: a committed version newer than the snapshot either
   extends the snapshot ([extend_reads]) or aborts.  Every successful
   read appends to the read log; duplicate entries are fine (see
   {!Rwset.Rlog}), which is what lets this path skip the old
   Hashtbl-based dedup-and-recheck entirely. *)
let rec read_slow : type a. t -> a Tvar.t -> attempt:int -> a =
 fun t tv ~attempt ->
  t.proto.p_pre_read t tv;
  match Tvar.current_owner tv with
  | Some d when d != t.tdesc ->
      arbitrate t ~other:d ~attempt;
      read_slow t tv ~attempt:(attempt + 1)
  | _ ->
      let s = Tvar.load tv in
      if s.Tvar.version > t.rv then
        if t.cfg.extend_reads && try_extend t then
          (* extension succeeded; re-examine under the new timestamp *)
          read_slow t tv ~attempt
        else begin
          Stats.record_conflict ();
          raise (Abort_exn Conflict)
        end
      else begin
        Rwset.Rlog.push t.rset tv s.Tvar.version;
        Txn_desc.earn t.tdesc 1;
        s.Tvar.value
      end

(* ------------------------------------------------------------------ *)
(* Multi-version reads                                                  *)

(* Read-write read under Multi_version: TL2 discipline with a
   stale-read grace.  Where TL2 aborts on a committed version newer
   than the snapshot (and extension is off or fails), this serves the
   newest chain entry at or below [rv] instead.  The chain keeps a
   contiguous newest-first prefix (trim only drops tails), so a found
   entry is the true newest-<=-rv and the whole read set stays a
   consistent rv-snapshot — opaque while executing.  The stale version
   is still pushed to the read log, so a transaction that also writes
   fails commit validation exactly as it must; a pure reader commits
   without validating.  [None] means the chain was reclaimed below
   [rv] (possible here — unlike read-only transactions, plain atomics
   register no snapshot), which falls back to the ordinary conflict
   abort. *)
let rec read_mv : type a. t -> a Tvar.t -> attempt:int -> a =
 fun t tv ~attempt ->
  match Tvar.current_owner tv with
  | Some d when d != t.tdesc ->
      arbitrate t ~other:d ~attempt;
      read_mv t tv ~attempt:(attempt + 1)
  | _ ->
      let s = Tvar.load tv in
      if s.Tvar.version <= t.rv then begin
        Rwset.Rlog.push t.rset tv s.Tvar.version;
        Txn_desc.earn t.tdesc 1;
        s.Tvar.value
      end
      else if t.cfg.extend_reads && try_extend t then read_mv t tv ~attempt
      else begin
        match Tvar.read_at tv ~version:t.rv with
        | Some v ->
            Rwset.Rlog.push t.rset tv v.Tvar.version;
            Txn_desc.earn t.tdesc 1;
            v.Tvar.value
        | None ->
            Stats.record_conflict ();
            raise (Abort_exn Conflict)
      end

(* Read-only snapshot read: no read log (nothing to validate — the
   snapshot is consistent by construction, see
   Txn_state.attempt_txn), but it must wait out a held
   version-lock before walking the chain.  A lock-mode commit holds
   each written tvar's lock from before its clock tick to after its
   publish, so a held lock may hide an unpublished version at or below
   our snapshot; once the lock is free, every commit at or below [rv]
   that touched this tvar is in the chain, and any later lock holder
   ticks strictly above [rv] (its acquisition follows our [rv]
   sample).  The wait never arbitrates: read-only transactions neither
   abort themselves nor kill writers.  Serial-gate commits hold no
   per-tvar locks and are drained once, at snapshot adoption.

   [None] from the chain walk is unreachable when the snapshot was
   registered before [rv] was sampled (Snapshots keeps the GC floor at
   or below every registered timestamp); surfaced as a conflict so a
   protocol bug aborts loudly instead of reading a torn value. *)
let rec ro_wait_out : type a. t -> a Tvar.t -> Backoff.t -> unit =
 fun t tv b ->
  match Tvar.current_owner tv with
  | Some d when d != t.tdesc ->
      Backoff.once b;
      ro_wait_out t tv b
  | _ -> ()

let read_ro : type a. t -> a Tvar.t -> a =
 fun t tv ->
  (match Tvar.current_owner tv with
  | Some d when d != t.tdesc ->
      (* Escalating backoff, not a bare spin: on an oversubscribed
         host the lock holder may be descheduled, and burning our
         quantum only delays its publish further.  Escalate to the OS
         sleep sooner than the configured read-write default — a
         read-only wait cannot arbitrate, so the holder finishing is
         the only way forward and it needs the cpu more than we do.
         The wait loop is a top-level function (not a local closure)
         so the uncontended read path allocates nothing. *)
      Stats.record_lock_wait ();
      ro_wait_out t tv
        (Backoff.create
           ~sleep_after:(min 2 t.cfg.backoff_sleep_after)
           ~sleep:t.cfg.backoff_sleep ())
  | _ -> ());
  (* Fast path: the head itself is within the snapshot — no option,
     no chain walk.  Only overtaken tvars pay for history.  The read
     count lives in the txn record (plain store) and is flushed to the
     striped Stats once at commit. *)
  let s = Tvar.load tv in
  if s.Tvar.version <= t.rv then begin
    t.ro_reads <- t.ro_reads + 1;
    s.Tvar.value
  end
  else
    match Tvar.read_at tv ~version:t.rv with
    | Some v ->
        t.ro_reads <- t.ro_reads + 1;
        v.Tvar.value
    | None ->
        Stats.record_conflict ();
        raise (Abort_exn Conflict)

(* ------------------------------------------------------------------ *)
(* Commit-time lock acquisition                                         *)

let rec lock_entry t tv ~attempt =
  match Tvar.try_lock tv t.tdesc with
  | `Mine -> ()
  | `Locked ->
      t.locked <- Locked tv :: t.locked;
      chaos_point t Fault.Post_lock_acquire
  | `Held other ->
      arbitrate t ~other ~attempt;
      lock_entry t tv ~attempt:(attempt + 1)

(* Lock the commit plan in uid order (avoids lock-order livelock; the
   eager modes already hold these locks and hit [`Mine]). *)
let acquire_plan_locks t =
  Rwset.Wlog.plan_iter_tv t.wset (fun tv -> lock_entry t tv ~attempt:0)

let acquire_commit_gate t =
  let b = t.gate_backoff in
  Backoff.reset b;
  let rec loop () =
    check_alive t;
    check_deadline t;
    if not (Atomic.compare_and_set commit_gate 0 t.tdesc.Txn_desc.id) then begin
      Stats.record_lock_wait ();
      obs_wait ~txn:t.tdesc.Txn_desc.id ~held_by:(Atomic.get commit_gate) b;
      loop ()
    end
  in
  loop ()

let release_commit_gate t =
  if Atomic.get commit_gate = t.tdesc.Txn_desc.id then Atomic.set commit_gate 0

(* ------------------------------------------------------------------ *)
(* The five protocols                                                   *)

let no_pre_read : 'a. Txn_state.t -> 'a Tvar.t -> unit = fun _ _ -> ()
let no_pre_write : 'a. Txn_state.t -> 'a Tvar.t -> unit = fun _ _ -> ()
let noop (_ : Txn_state.t) = ()
let tl2_read : 'a. Txn_state.t -> 'a Tvar.t -> 'a =
 fun t tv -> read_slow t tv ~attempt:0

(* TL2: both conflict classes detected lazily — writes buffer without
   locking, the write set is locked at commit. *)
let lazy_lazy =
  {
    p_read = tl2_read;
    p_pre_read = no_pre_read;
    p_pre_write = no_pre_write;
    p_acquire = acquire_plan_locks;
    p_release_fail = noop;
    p_release = noop;
    p_stage = Inline_publish;
  }

(* TinySTM/Ennals: encounter-time write locking, lazy read/write. *)
let eager_lazy =
  {
    p_read = tl2_read;
    p_pre_read = no_pre_read;
    p_pre_write =
      (fun t tv -> lock_for_write ~visible_readers:false t tv ~attempt:0);
    p_acquire = acquire_plan_locks;
    p_release_fail = noop;
    p_release = noop;
    p_stage = Inline_publish;
  }

(* Eager on both axes: encounter-time write locks plus visible readers
   (the mode Theorem 5.2 requires for eager/optimistic Proustian
   objects to be opaque). *)
let eager_eager =
  {
    p_read = tl2_read;
    p_pre_read = (fun t tv -> Tvar.register_reader tv t.tdesc);
    p_pre_write =
      (fun t tv -> lock_for_write ~visible_readers:true t tv ~attempt:0);
    p_acquire = acquire_plan_locks;
    p_release_fail = noop;
    p_release = noop;
    p_stage = Inline_publish;
  }

(* NOrec: no per-location commit locking at all; writing commits
   serialize on the one global gate, released only after publishing
   (failed commits release it in [p_release_fail] since the abort path
   only knows about per-location locks). *)
let serial_commit =
  {
    p_read = tl2_read;
    p_pre_read = no_pre_read;
    p_pre_write = no_pre_write;
    p_acquire = acquire_commit_gate;
    p_release_fail = release_commit_gate;
    p_release = release_commit_gate;
    (* The serial gate is the natural combiner election: see
       {!Publisher}. *)
    p_stage = Group_commit;
  }

(* MVCC read-write: lazy_lazy commit machinery (commit-time plan
   locks, read-log validation) with the multi-version read path. *)
let multi_version =
  {
    p_read = (fun t tv -> read_mv t tv ~attempt:0);
    p_pre_read = no_pre_read;
    p_pre_write = no_pre_write;
    p_acquire = acquire_plan_locks;
    p_release_fail = noop;
    p_release = noop;
    p_stage = Inline_publish;
  }

(* The abort-free snapshot protocol for read-only transactions
   (the ladder's snapshot rung installs it directly; it is not a
   [mode]).  Writes never reach [p_pre_write] — Stm.write raises
   [Read_only_violation] on the [ro] flag first — and with an empty
   write set the commit path neither acquires nor validates. *)
let read_only_proto =
  {
    p_read = (fun t tv -> read_ro t tv);
    p_pre_read = no_pre_read;
    p_pre_write = no_pre_write;
    p_acquire = noop;
    p_release_fail = noop;
    p_release = noop;
    p_stage = Inline_publish;
  }

let select = function
  | Lazy_lazy -> lazy_lazy
  | Eager_lazy -> eager_lazy
  | Eager_eager -> eager_eager
  | Serial_commit -> serial_commit
  | Multi_version ->
      (* Sticky: from here on every publish maintains version chains,
         so snapshots taken later always find history. *)
      Snapshots.ensure_armed ();
      multi_version
