(* Runs one iteration in a child process and hands its result back over
   a pipe. The simulator keeps some state across boots that no public
   call resets (the round-robin cursors that pick the Batch and Ring
   flush workqueues, for one), so a second iteration in the same process
   would not simulate what the first did. Every iteration therefore
   starts from the same process state, which has simulated nothing.
   Children run one at a time, each with one domain, and are waited for. *)

let run (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc (v : ('a, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v : ('a, string) result =
        try Marshal.from_channel ic with End_of_file | Failure _ -> Error "no result"
      in
      close_in ic;
      let rec wait () =
        try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      match (wait (), v) with
      | Unix.WEXITED 0, v -> v
      | (Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
          Error (Printf.sprintf "iteration process ended with status %d" n)
