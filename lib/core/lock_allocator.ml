type kind = Optimistic | Pessimistic

type 'k t = {
  kind : kind;
  name : string;
  acquire : Stm.txn -> 'k Intent.t list -> unit;
}

(* -------------------------------------------------------------------- *)
(* Pessimistic: striped re-entrant read/write locks, two-phase.          *)

let pessimistic ?(timeout = 5e-3) ~ca () =
  let locks =
    Array.init ca.Conflict_abstraction.slots (fun _ ->
        Proust_concurrent.Rw_lock.create ())
  in
  (* Let the chaos harness audit this allocator's striped locks.  Only
     registered while auditing is on, so ordinary runs never grow the
     global checker list (each check is O(slots) per finished attempt). *)
  if Stm.leak_audit_enabled () then
    Stm.register_leak_check (fun ~owner ->
        let leaked = ref None in
        Array.iteri
          (fun slot l ->
            if !leaked = None && Proust_concurrent.Rw_lock.holds l ~owner then
              leaked := Some (Printf.sprintf "pessimistic rw-lock slot %d" slot))
          locks;
        !leaked);
  (* Per-transaction set of slot indices acquired, so commit/abort can
     release exactly once.  The key's initializer registers the release
     hooks on first acquisition in each transaction. *)
  let held_key =
    Stm.Local.key (fun txn ->
        let held : (int, unit) Hashtbl.t = Hashtbl.create 8 in
        let owner = (Stm.desc txn).Txn_desc.id in
        let release () =
          Hashtbl.iter
            (fun slot () ->
              Proust_concurrent.Rw_lock.release_all locks.(slot) ~owner)
            held;
          if
            Hashtbl.length held > 0
            && Proust_obs.Gate.get () land Proust_obs.Gate.trace_bit <> 0
          then
            Proust_obs.Trace.emit
              ~tick:(Clock.now Clock.global)
              ~txn:owner Proust_obs.Trace.Alock_release
        in
        Stm.after_commit txn release;
        Stm.on_abort txn release;
        held)
  in
  let acquire txn intents =
    let held = Stm.Local.get txn held_key in
    let owner = (Stm.desc txn).Txn_desc.id in
    let accesses = Conflict_abstraction.accesses_for ca ~stripe:owner intents in
    (* The acquisition deadline is monotonic ([Rw_lock] polls against
       the same base) and clamped by the episode's own QoS deadline, if
       any: a transaction whose time is nearly up should spend what is
       left of it failing fast, not queueing for its full [timeout]. *)
    let episode_deadline = Stm.deadline txn in
    List.iter
      (fun { Conflict_abstraction.slot; write } ->
        let deadline =
          let d = Clock.now_mono () +. timeout in
          match episode_deadline with
          | Some e -> Float.min d e
          | None -> d
        in
        let lock = locks.(slot) in
        let ok =
          if write then
            Proust_concurrent.Rw_lock.try_acquire_write lock ~owner ~deadline
          else
            Proust_concurrent.Rw_lock.try_acquire_read lock ~owner ~deadline
        in
        if ok then Hashtbl.replace held slot ()
        else begin
          (* Deadline expired: presume deadlock or livelock, abort and
             retry under backoff (the boosting recipe). *)
          Stats.record_lock_wait ();
          ignore (Stm.restart txn)
        end)
      accesses
  in
  { kind = Pessimistic; name = "pessimistic"; acquire }

(* -------------------------------------------------------------------- *)
(* Optimistic: conflict-abstraction slots are STM locations.             *)

let optimistic ?(validate_writes = true) ~ca () =
  let region =
    Array.init ca.Conflict_abstraction.slots (fun _ -> Tvar.make 0)
  in
  let acquire txn intents =
    let stripe = (Stm.desc txn).Txn_desc.id in
    let accesses = Conflict_abstraction.accesses_for ca ~stripe intents in
    List.iter
      (fun { Conflict_abstraction.slot; write } ->
        let tv = region.(slot) in
        if write then begin
          if validate_writes then ignore (Stm.read txn tv);
          Stm.write txn tv stripe
        end
        else ignore (Stm.read txn tv))
      accesses
  in
  let name =
    if validate_writes then "optimistic" else "optimistic-unvalidated"
  in
  { kind = Optimistic; name; acquire }
