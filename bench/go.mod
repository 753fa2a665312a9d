module dnsguard/bench

go 1.22

require dnsguard v0.0.0

replace dnsguard => ../
