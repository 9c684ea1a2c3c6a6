(** xqp — the single entry point.

    The surface is the session API: {!Session} (explicit constructors,
    [result]-typed queries, unified
    [?engine ?optimize ?use_cache ?deadline_ms] options), {!Error} (the
    structured failure type), {!Response} (the one JSON wire schema) and
    {!Server} ([xqp serve]'s multicore HTTP front end):

    {[
      let db = Result.get_ok (Xqp.Session.of_string "<bib><book/></bib>") in
      match Xqp.Session.run db "//book" with
      | Ok r -> print_string (Xqp.Session.to_xml db r.nodes)
      | Error e -> prerr_endline (Xqp.Error.message e)
    ]} *)

(** {1 Re-exported layers} *)

module Xml = Xqp_xml
module Storage = Xqp_storage
module Algebra = Xqp_algebra
module Xpath = Xqp_xpath
module Physical = Xqp_physical
module Xquery = Xqp_xquery
module Workload = Xqp_workload

(** {1 The session API} *)

module Error = Error
module Session = Session
module Response = Response
module Server = Server
